"""Source models, block expansion, and self-information values."""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest

from srnglab import (
    AtomicDistribution,
    CapExceeded,
    IID,
    InvalidModel,
    Markov,
    Mixture,
    SourceModel,
    ZeroMassOutcome,
    expand,
    outcome_from_id,
    outcome_id,
    pmf_entropy,
    self_information,
    self_information_value,
    sort_descending,
)
from srnglab.probability import FLOAT_MASS_TOL, _float_twin, _is_exact, _validate_pmf

F = Fraction


def bernoulli(p: Fraction, n: int) -> SourceModel:
    return SourceModel(IID((1 - p, p)), n)


# ---------------------------------------------------------------------------
# outcome ids


def test_outcome_id_is_big_endian_base_k() -> None:
    assert outcome_id((1, 1), 2) == 3
    assert outcome_id((0, 1), 2) == 1
    assert outcome_id((1, 0, 1), 2) == 5
    assert outcome_id((0, 1), 3) == 1
    assert outcome_id((2, 1), 3) == 7


def test_outcome_round_trip() -> None:
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            for oid in range(k**n):
                out = outcome_from_id(oid, n, k)
                assert len(out.symbols) == n
                assert outcome_id(out.symbols, k) == oid
                assert out.id == oid


# ---------------------------------------------------------------------------
# distribution construction and validation


def test_from_masses_infers_exactness() -> None:
    exact = AtomicDistribution.from_masses([F(1, 2), F(1, 2)], 1, 2)
    assert exact.exact
    approx = AtomicDistribution.from_masses([0.5, 0.5], 1, 2)
    assert not approx.exact


def test_from_masses_rejects_bad_sum() -> None:
    with pytest.raises(InvalidModel):
        AtomicDistribution.from_masses([F(1, 2), F(1, 3)], 1, 2)


def test_from_masses_rejects_negative_mass() -> None:
    with pytest.raises(InvalidModel):
        AtomicDistribution.from_masses([F(3, 2), F(-1, 2)], 1, 2)


def test_from_masses_rejects_wrong_length() -> None:
    with pytest.raises(InvalidModel):
        AtomicDistribution.from_masses([F(1, 2), F(1, 2)], 2, 2)
    for masses, n, k in (([F(1)], 0, 2), ([F(1)], 1, 0), ([], -1, 2)):
        with pytest.raises(InvalidModel) as excinfo:
            AtomicDistribution(tuple(masses), n, k, True)
        assert str(excinfo.value) == "blocklength and alphabet size must be positive"


def test_exact_distribution_refuses_float_masses() -> None:
    # A float mass in exact mode is refused once the row is checked as a
    # pmf, so a row that is no pmf at all is named for that first.
    with pytest.raises(InvalidModel) as excinfo:
        AtomicDistribution((F(1, 2), 0.5), 1, 2, True)
    assert str(excinfo.value) == "exact mode requires rational masses"
    with pytest.raises(InvalidModel) as excinfo:
        AtomicDistribution((F(1, 2), -0.5), 1, 2, True)
    assert str(excinfo.value) == "mass vector contains a negative entry"


def test_outcome_decodes_an_id_of_the_distribution() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(1, 4), F(1, 2))), 3))
    assert d.outcome(16) == outcome_from_id(16, 3, 3)
    assert d.outcome(16).symbols == (1, 2, 1)
    with pytest.raises(InvalidModel) as excinfo:
        d.outcome(27)
    assert str(excinfo.value) == "outcome id 27 outside space of size 3**3"


def test_support_skips_zero_atoms() -> None:
    d = AtomicDistribution.from_masses([F(1, 2), F(1, 2), F(0), F(0)], 2, 2)
    assert d.support() == (0, 1)


# ---------------------------------------------------------------------------
# expansion of the three model variants


def test_iid_expansion_bernoulli_quarter() -> None:
    d = expand(bernoulli(F(3, 4), 2))
    assert d.masses == (F(1, 16), F(3, 16), F(3, 16), F(9, 16))
    assert d.exact


def test_iid_expansion_masses_are_products() -> None:
    pmf = (F(1, 6), F(1, 3), F(1, 2))
    d = expand(SourceModel(IID(pmf), 2))
    for oid in range(9):
        a, b = outcome_from_id(oid, 2, 3).symbols
        assert d.mass(oid) == pmf[a] * pmf[b]


def test_markov_deterministic_chain_concentrates_on_constants() -> None:
    # Identity transition freezes the first symbol, so only the two
    # constant strings carry mass.
    chain = Markov(
        (F(1, 2), F(1, 2)),
        ((F(1), F(0)), (F(0), F(1))),
    )
    d = expand(SourceModel(chain, 3))
    assert d.mass(0) == F(1, 2)
    assert d.mass(7) == F(1, 2)
    assert sum(1 for m in d.masses if m > 0) == 2


def test_markov_two_step_by_hand() -> None:
    chain = Markov(
        (F(2, 3), F(1, 3)),
        ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))),
    )
    d = expand(SourceModel(chain, 2))
    assert d.mass(outcome_id((0, 0), 2)) == F(2, 3) * F(1, 2)
    assert d.mass(outcome_id((0, 1), 2)) == F(2, 3) * F(1, 2)
    assert d.mass(outcome_id((1, 0), 2)) == F(1, 3) * F(1, 4)
    assert d.mass(outcome_id((1, 1), 2)) == F(1, 3) * F(3, 4)


def test_mixture_of_point_masses() -> None:
    mix = Mixture(
        (F(1, 2), F(1, 2)),
        (IID((F(1), F(0))), IID((F(0), F(1)))),
    )
    d = expand(SourceModel(mix, 2))
    assert d.masses == (F(1, 2), F(0), F(0), F(1, 2))


def test_mixture_is_convex_combination_of_expansions() -> None:
    comp_a = IID((F(1, 4), F(3, 4)))
    comp_b = IID((F(2, 3), F(1, 3)))
    mix = SourceModel(Mixture((F(1, 3), F(2, 3)), (comp_a, comp_b)), 3)
    d = expand(mix)
    da = expand(SourceModel(comp_a, 3))
    db = expand(SourceModel(comp_b, 3))
    for oid in range(8):
        assert d.mass(oid) == F(1, 3) * da.mass(oid) + F(2, 3) * db.mass(oid)


def test_expand_respects_atom_cap() -> None:
    with pytest.raises(CapExceeded):
        expand(bernoulli(F(1, 2), 30), cap=1000)


def test_mixture_validation() -> None:
    with pytest.raises(InvalidModel):
        Mixture((F(1, 2), F(1, 4)), (IID((F(1, 2), F(1, 2))), IID((F(1, 2), F(1, 2)))))
    with pytest.raises(InvalidModel):
        Mixture((F(1, 2), F(1, 2)), (IID((F(1, 2), F(1, 2))),))
    half = IID((F(1, 2), F(1, 2)))
    for weights in ((F(0), F(1)), (F(3, 2), F(-1, 2)), (1.0, -0.0)):
        with pytest.raises(InvalidModel) as excinfo:
            Mixture(weights, (half, half))
        assert str(excinfo.value) == "mixture weights must be positive"
    with pytest.raises(InvalidModel) as excinfo:
        Mixture((F(1, 2), F(1, 2)), (half, IID((F(1, 3), F(1, 3), F(1, 3)))))
    assert str(excinfo.value) == "mixture components must share one alphabet"


def test_source_model_needs_a_positive_blocklength() -> None:
    for n in (0, -3):
        with pytest.raises(InvalidModel) as excinfo:
            SourceModel(IID((F(1, 2), F(1, 2))), n)
        assert str(excinfo.value) == "blocklength must be at least 1"


# Each source kind built from its parameters listed in field order, ints and
# Fractions mixed, and the same list read back from a built variant.
KINDS = {
    "iid": (lambda p: IID(p), (F(1, 4), 0, F(3, 4))),
    "markov": (lambda p: Markov(p[:2], (p[2:4], p[4:])), (1, 0, F(9, 10), F(1, 10), 0, 1)),
    "mixture": (
        lambda p: Mixture(p[:2], (IID(p[2:4]), IID(p[4:]))),
        (F(1, 3), F(2, 3), F(1, 4), F(3, 4), 1, 0),
    ),
}


def parameters(variant) -> list:
    if isinstance(variant, IID):
        return list(variant.pmf)
    if isinstance(variant, Markov):
        return [*variant.initial, *(p for row in variant.transition for p in row)]
    return [*variant.weights, *(p for c in variant.components for p in c.pmf)]


@pytest.mark.parametrize("kind", KINDS)
def test_exactness_and_the_float_twin_read_every_parameter(kind) -> None:
    build, params = KINDS[kind]
    variant = build(params)
    assert parameters(variant) == list(params)
    assert SourceModel(variant, 2).exact
    # One float in any parameter position makes the whole source float.
    for i in range(len(params)):
        mixed = list(params)
        mixed[i] = float(params[i])
        assert not SourceModel(build(tuple(mixed)), 2).exact, i
    twin = _float_twin(variant)
    assert type(twin) is type(variant)
    assert twin == build(tuple(map(float, params)))
    assert [type(p) for p in parameters(twin)] == [float] * len(params)
    assert parameters(twin) == [float(p) for p in params]
    assert not SourceModel(twin, 2).exact


def test_markov_validation() -> None:
    with pytest.raises(InvalidModel):
        Markov((F(1, 2), F(1, 2)), ((F(1), F(0)),))
    with pytest.raises(InvalidModel):
        Markov((F(1, 2), F(1, 2)), ((F(1), F(0)), (F(1, 3), F(1, 3))))


# ---------------------------------------------------------------------------
# ordering and information values


def test_sort_descending_breaks_ties_by_ascending_id() -> None:
    d = AtomicDistribution.from_masses([F(1, 4), F(1, 2), F(1, 4), F(0)], 1, 4)
    assert sort_descending(d) == (1, 0, 2, 3)


def test_sort_descending_is_a_permutation() -> None:
    d = expand(bernoulli(F(3, 4), 3))
    order = sort_descending(d)
    assert sorted(order) == list(range(8))
    masses = [d.mass(i) for i in order]
    assert masses == sorted(masses, reverse=True)


def test_derived_views_are_computed_once_and_stay_out_of_identity() -> None:
    masses = [F(1, 4), F(0), F(1, 2), F(0), F(1, 4), F(0), F(0), F(0)]
    for exact in (True, False):
        d = AtomicDistribution.from_masses(masses, 3, 2, exact=exact)
        twin = AtomicDistribution.from_masses(masses, 3, 2, exact=exact)
        order = sort_descending(d)
        assert sort_descending(d) is order and d.support() is d.support()
        # The stable sort of every id; zero masses last, by ascending id.
        assert order == tuple(sorted(range(8), key=d.masses.__getitem__, reverse=True))
        assert order == (2, 0, 4, 1, 3, 5, 6, 7)
        assert d.support() == tuple(i for i, m in enumerate(d.masses) if m > 0) == (0, 2, 4)
        assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)


def test_runs_are_the_descending_order_cut_by_mass() -> None:
    import random
    from collections import Counter
    from itertools import groupby

    from srnglab import spectrum_cdf
    from srnglab.probability import _ClassList

    def runs(d):
        # The class list as (mass, length) runs: its sizes are the run ends.
        sizes = d._classes.sizes
        return tuple(zip(d._classes.nums, map(operator.sub, sizes, [0] + sizes[:-1])))

    rng = random.Random(2309)
    dists = []
    for _ in range(60):
        # Few distinct weights, so runs are long; some zeros.
        palette = [0] + [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        weights = [rng.choice(palette) for _ in range(rng.randint(1, 16))]
        weights[0] = weights[0] or 1
        total = sum(weights)
        for exact in (True, False):
            masses = [F(w, total) for w in weights]
            dists.append(AtomicDistribution.from_masses(masses, 1, len(masses), exact=exact))
    # Float near-ties: masses one ulp apart are distinct runs.
    eighth = 0.125
    up, down = math.nextafter(eighth, 1), math.nextafter(eighth, 0)
    near = [eighth, up, down, eighth, 0.0]
    rest = 1.0 - sum(near)
    near_ties = AtomicDistribution.from_masses(near + [rest, 0.0, 0.0], 3, 2, exact=False)
    assert runs(near_ties) == ((rest, 1), (up, 1), (eighth, 2), (down, 1))
    dists.append(near_ties)
    for variant in (
        IID((F(2, 3), F(1, 3))),
        Markov((F(1, 2), F(1, 2)), ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5)))),
        Mixture((F(1, 2), F(1, 2)), (IID((F(9, 10), F(1, 10))), IID((F(1, 5), F(4, 5))))),
        IID((F(1, 2), F(1, 2), F(0))),
    ):
        dists.append(expand(SourceModel(variant, 7)))
        dists.append(AtomicDistribution.from_masses(dists[-1].masses, 7, variant.alphabet_size, exact=False))
    seen = {"zeros": 0, "float_runs": 0, "ties": 0}
    for d in dists:
        order, values = sort_descending(d), d._values
        live = len(d.support())
        want = tuple((mass, len(list(ids))) for mass, ids in groupby(order[:live], values.__getitem__))
        assert runs(d) == want
        assert all(mass > 0 for mass, _ in runs(d))
        seen["zeros"] += live < len(order)
        seen["ties"] += any(length > 1 for _, length in runs(d))
        if d.exact:
            counts = Counter(values)
            counts.pop(0, None)
            built = _ClassList.build(d.n, d._den, list(counts), list(counts.values()))
            assert spectrum_cdf(d)._classes == built
        else:
            seen["float_runs"] += 1
    assert all(count > 10 for count in seen.values()), seen


def test_self_information_survives_tiny_masses() -> None:
    # float(mass) would underflow to 0 long before 2**-2000; the value
    # must still come out right.
    v = self_information_value(F(1, 2**2000), 1000)
    assert v == pytest.approx(2 * math.log(2), abs=1e-12)


def test_self_information_matches_direct_log() -> None:
    d = expand(bernoulli(F(3, 4), 2))
    assert self_information(d, 3) == pytest.approx(-math.log(9 / 16) / 2)
    assert self_information(d, 0) == pytest.approx(-math.log(1 / 16) / 2)


def test_self_information_zero_mass_raises() -> None:
    d = AtomicDistribution.from_masses([F(1), F(0)], 1, 2)
    with pytest.raises(ZeroMassOutcome):
        self_information(d, 1)


def test_pmf_entropy_extremes() -> None:
    assert pmf_entropy([F(1, 4)] * 4) == pytest.approx(math.log(4))
    assert pmf_entropy([1.0, 0.0]) == 0.0
    assert pmf_entropy([F(1, 4), F(3, 4)]) == pytest.approx(
        math.log(4) / 4 + 3 * math.log(4 / 3) / 4
    )


# ---------------------------------------------------------------------------
# validation messages


@pytest.mark.parametrize(
    "row, message",
    [
        ((), "single-symbol pmf is empty"),
        ((0.5, math.nan), "single-symbol pmf contains a non-finite entry"),
        ((0.5, math.inf), "single-symbol pmf contains a non-finite entry"),
        ((F(3, 2), F(-1, 2)), "single-symbol pmf contains a negative entry"),
    ],
    ids=["empty", "nan", "inf", "negative"],
)
def test_pmf_validation_names_the_fault(row, message) -> None:
    with pytest.raises(InvalidModel) as excinfo:
        IID(row)
    assert str(excinfo.value) == message


def old_validate_pmf(row, what):
    # The check before it cleared whole rows at once: every entry first,
    # then the sum.
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


def outcome(check, row):
    try:
        return ("ok", check(row, "row"))
    except Exception as exc:  # the exception's type and text are compared
        return (type(exc), str(exc))


@pytest.mark.parametrize(
    "row",
    [
        (0.25, 0.75),
        (F(1, 4), F(3, 4)),
        (F(1, 2), 0.5),
        (1, 0),
        (0.5, 0.5 + 2e-12),
        (F(1, 2), F(1, 3)),
        (0.5, math.nan),
        (math.nan, -0.5, 1.0),
        (-0.5, math.nan, 1.0),
        (math.inf, -math.inf),
        (F(1, 2), -math.inf, 0.5),
        (1e308, 1e308),
        (1e308, 1e308, -1.0),
        (F(3, 2), -0.5),
        (F(1, 2), F(-1, 2), 1.0),
        (-0.0, 1.0),
        (10**400, -1.0),
        (10**400, 0.5),
        (F(10**400), 0.5),
        ("half", 0.5),
    ],
)
def test_pmf_validation_checks_whole_rows_as_the_entry_loop_did(row) -> None:
    # Same return, or same exception type and text, as the entry-by-entry
    # check: non-finite and negative entries, sums that overflow, mixed
    # Fraction and float rows, and rows that cannot be summed at all.
    assert outcome(_validate_pmf, row) == outcome(old_validate_pmf, row)


def test_outcome_ids_reject_what_lies_outside_the_space() -> None:
    with pytest.raises(InvalidModel) as excinfo:
        outcome_id((0, 2), 2)
    assert str(excinfo.value) == "symbol 2 outside alphabet of size 2"
    with pytest.raises(InvalidModel) as excinfo:
        outcome_from_id(8, 3, 2)
    assert str(excinfo.value) == "outcome id 8 outside space of size 2**3"
