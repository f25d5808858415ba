"""Distortion specs, the rate-distortion solver, and the crossover threshold."""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from srnglab import (
    AtomicDistribution,
    DimensionMismatch,
    DistortionSpec,
    IID,
    InvalidModel,
    MappingPair,
    NoConvergence,
    OutOfRange,
    SourceModel,
    apply_mapping,
    build_mapping,
    d_threshold,
    divergence,
    expand,
    mapping_distortion,
    pmf_entropy,
    rd_function_iid,
    rdp_lower_bound,
    spectrum_cdf,
    variational,
)

F = Fraction

HAMMING2 = DistortionSpec("additive", ((0, 1), (1, 0)))
HAMMING3 = DistortionSpec("additive", ((0, 1, 1), (1, 0, 1), (1, 1, 0)))


def binary_entropy(x: float) -> float:
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


# ---------------------------------------------------------------------------
# distortion specs


def test_spec_validation() -> None:
    with pytest.raises(InvalidModel):
        DistortionSpec("additive", ((0, 1), (1, 1)))
    with pytest.raises(InvalidModel):
        DistortionSpec("additive", ((0, -1), (1, 0)))
    with pytest.raises(InvalidModel):
        DistortionSpec("additive", ((0, 1),))
    with pytest.raises(InvalidModel):
        DistortionSpec("diagonal", ((0, 1), (1, 0)))


def test_additive_block_value_counts_mismatches() -> None:
    # Outcomes 5 = 101 and 3 = 011 differ in the first two positions.
    assert HAMMING2.block_value(5, 3, 3, 2) == 2
    assert HAMMING2.block_value(5, 5, 3, 2) == 0
    assert HAMMING2.max_block(3) == 3


def test_table_block_value_reads_directly() -> None:
    table = DistortionSpec("table", ((0, 5), (2, 0)))
    assert table.block_value(0, 1, 1, 2) == 5
    assert table.block_value(1, 0, 1, 2) == 2
    assert table.max_block(7) == 5


def test_weighted_additive_entries() -> None:
    spec = DistortionSpec("additive", ((0, F(1, 2)), (F(3, 2), 0)))
    assert spec.block_value(1, 0, 1, 2) == F(3, 2)
    assert spec.max_block(2) == 3


# ---------------------------------------------------------------------------
# expected distortion of a mapping


def test_mapping_distortion_exact_on_the_running_example() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    mapping, _ = build_mapping(d, 4, F(1, 20))
    # Everything collapses onto 11; outcome 00 moves 2 symbols, 01 and
    # 10 one each: (1/16 * 2 + 3/16 + 3/16) / 2 = 1/4.
    assert mapping_distortion(d, mapping, HAMMING2) == F(1, 4)


def test_identity_mapping_has_zero_distortion() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    identity = MappingPair(phi=(0, 1, 2, 3), psi=(0, 1, 2, 3), m_n=4)
    assert mapping_distortion(d, identity, HAMMING2) == 0


def test_mapping_distortion_stays_exact_when_nothing_moves() -> None:
    identity = MappingPair(phi=(0, 1, 2, 3), psi=(0, 1, 2, 3), m_n=4)
    exact = expand(SourceModel(IID((F(3, 4), F(1, 4))), 2))
    zero = mapping_distortion(exact, identity, HAMMING2)
    assert zero == 0 and type(zero) is F
    inexact = AtomicDistribution.from_masses(exact.masses, 2, 2, exact=False)
    zero = mapping_distortion(inexact, identity, HAMMING2)
    assert zero == 0 and type(zero) is float


def test_mapping_distortion_is_a_float_with_float_entries() -> None:
    # An exact source with float entries: whether or not anything moves, the
    # result's type follows the entries, not the mapping.
    d = expand(SourceModel(IID((F(3, 4), F(1, 4))), 2))
    floats = DistortionSpec("additive", ((0.0, 1.0), (1.0, 0.0)))
    identity = MappingPair(phi=(0, 1, 2, 3), psi=(0, 1, 2, 3), m_n=4)
    split, _ = build_mapping(d, 4, F(1, 20))
    zero = mapping_distortion(d, identity, floats)
    assert zero == 0 and type(zero) is float
    moved = mapping_distortion(d, split, floats)
    assert moved == 0.25 and type(moved) is float
    assert mapping_distortion(d, split, HAMMING2) == F(1, 4)


def test_mapping_distortion_dimension_checks() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    mapping, _ = build_mapping(d, 4, F(1, 20))
    with pytest.raises(DimensionMismatch):
        mapping_distortion(d, mapping, HAMMING3)
    with pytest.raises(DimensionMismatch):
        mapping_distortion(d, mapping, DistortionSpec("table", ((0, 1), (1, 0))))


# ---------------------------------------------------------------------------
# the solver against closed forms


def test_binary_hamming_closed_form() -> None:
    for p in (F(1, 2), F(3, 10)):
        for dd in (0.05, 0.15, 0.25):
            value = rd_function_iid((1 - p, p), HAMMING2, dd)
            closed = binary_entropy(float(p)) - binary_entropy(dd)
            assert value == pytest.approx(closed, abs=1e-8)


def test_ternary_hamming_closed_form() -> None:
    pmf = (F(1, 3), F(1, 3), F(1, 3))
    for dd in (0.1, 0.3, 0.5):
        value = rd_function_iid(pmf, HAMMING3, dd)
        closed = math.log(3) - binary_entropy(dd) - dd * math.log(2)
        assert value == pytest.approx(closed, abs=1e-8)


def test_solver_boundary_behaviour() -> None:
    pmf = (F(7, 10), F(3, 10))
    assert rd_function_iid(pmf, HAMMING2, F(3, 10)) == 0.0
    assert rd_function_iid(pmf, HAMMING2, 1.0) == 0.0
    assert rd_function_iid(pmf, HAMMING2, 0) == pytest.approx(pmf_entropy(pmf))


def test_negative_distortion_is_out_of_range() -> None:
    pmf = (F(3, 4), F(1, 4))
    for d in (F(-1, 10), -1e-300):
        with pytest.raises(OutOfRange) as excinfo:
            rd_function_iid(pmf, HAMMING2, d)
        assert str(excinfo.value) == f"distortion budget must be nonnegative, got {d}"
    assert rd_function_iid(pmf, HAMMING2, F(0)) == pytest.approx(pmf_entropy(pmf))


def test_fully_free_column_makes_every_distortion_trivial() -> None:
    # Reproducing everything as symbol 1 costs nothing here, so the rate
    # is zero even at distortion zero.
    free_column = DistortionSpec("additive", ((0, 0), (1, 0)))
    assert rd_function_iid((F(1, 2), F(1, 2)), free_column, 0) == 0.0


def test_zero_distortion_needs_positive_off_diagonals() -> None:
    # No column is free, but the move 0 -> 1 is: at distortion zero the
    # entropy answer would be wrong, so the solver must refuse.
    free_move = DistortionSpec(
        "additive", ((0, 0, 1), (1, 0, 1), (1, 1, 0))
    )
    with pytest.raises(OutOfRange):
        rd_function_iid((F(1, 3), F(1, 3), F(1, 3)), free_move, 0)


def test_solver_rejects_table_specs() -> None:
    with pytest.raises(InvalidModel):
        rd_function_iid((F(1, 2), F(1, 2)), DistortionSpec("table", ((0, 1), (1, 0))), 0.1)


def test_solver_reports_non_convergence(monkeypatch) -> None:
    with pytest.raises(NoConvergence) as inner:
        rd_function_iid((F(7, 10), F(3, 10)), HAMMING2, 0.1, max_iter=1)
    message = str(inner.value)
    assert message.startswith("output law not stable after max_iter = 1 iterations at beta = 1.0: ")
    drift = float(message.split("last drift ")[1].split(",")[0])
    assert drift > 1e-9
    assert message.endswith("tolerance 1e-09")

    # A solver whose distortion never drops below the target exhausts the
    # doubling search: the error names the target and the last multiplier.
    import srnglab.rdp as rdp_module

    monkeypatch.setattr(rdp_module, "_blahut", lambda p, g, beta, tol, max_iter: (0.0, 1.0))
    with pytest.raises(NoConvergence) as outer:
        rd_function_iid((F(7, 10), F(3, 10)), HAMMING2, 0.1)
    assert str(outer.value) == (
        "no multiplier meets the distortion target d = 0.1; "
        f"the last one tried was beta = {2.0**199!r}"
    )


def test_solver_never_repeats_a_multiplier(monkeypatch) -> None:
    import srnglab.rdp as rdp_module

    solve = rdp_module._blahut
    betas: list[float] = []

    def counted(p, g, beta, tol, max_iter):
        betas.append(beta)
        return solve(p, g, beta, tol, max_iter)

    monkeypatch.setattr(rdp_module, "_blahut", counted)
    for d in (F(1, 20), 0.1, F(1, 5)):
        betas.clear()
        value = rd_function_iid((F(3, 4), F(1, 4)), HAMMING2, d)
        assert value == pytest.approx(binary_entropy(0.25) - binary_entropy(float(d)), abs=1e-6)
        assert len(betas) == len(set(betas)) > 2


def generator_drift_blahut(p, g, beta, tol, max_iter):
    """The inner solver with its drift taken by a generator over the
    (new, old) pairs, the loop `_blahut` ran before it went to C-level maps."""
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
        drift = max(abs(nb - ob) for nb, ob in zip(new_q, q))
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


def test_blahut_matches_the_generator_drift_loop() -> None:
    # The drift is the same floats compared in the same order, so every
    # (value, distortion) and every non-convergence message is equal.
    from srnglab.rdp import _blahut

    rng = random.Random(1571)
    checked = 0
    for _ in range(60):
        k = rng.randint(2, 4)
        weights = [rng.randint(1, 9) for _ in range(k)]
        weights[rng.randrange(k)] = 0
        p = [w / sum(weights) for w in weights]
        g = [[0.0 if a == b else rng.randint(1, 5) / 4 for b in range(k)] for a in range(k)]
        for beta in (0.0, 0.5, 2.0, 6.0):
            assert _blahut(p, g, beta, 1e-9, 100000) == generator_drift_blahut(p, g, beta, 1e-9, 100000)
            checked += 1
        with pytest.raises(NoConvergence) as new:
            _blahut(p, g, 2.0, 1e-9, 2)
        with pytest.raises(NoConvergence) as old:
            generator_drift_blahut(p, g, 2.0, 1e-9, 2)
        assert str(new.value) == str(old.value)
    assert checked == 240


def test_rd_is_nonincreasing_in_distortion() -> None:
    pmf = (F(3, 5), F(3, 10), F(1, 10))
    values = [rd_function_iid(pmf, HAMMING3, dd) for dd in (0.02, 0.1, 0.2, 0.4, 0.6)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# the crossover threshold


def test_threshold_hand_value() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    summary = spectrum_cdf(d)
    # K lands on the middle spectrum point; the inclusive tail there is
    # 3/8 + 1/16 and the worst block distortion is n, so the threshold is
    # exactly that tail.
    assert d_threshold(summary, variational(), F(1, 10), HAMMING2) == F(7, 16)


def test_threshold_grows_with_looser_budgets() -> None:
    # A looser divergence budget lowers the resolution point, widening
    # the inclusive tail of outcomes the constructions may move.
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 4))
    summary = spectrum_cdf(d)
    loose = d_threshold(summary, variational(), F(3, 5), HAMMING2)
    tight = d_threshold(summary, variational(), F(1, 20), HAMMING2)
    assert loose >= tight
    assert tight == F(13, 256)
    assert loose == F(175, 256)


def test_construction_distortion_stays_under_the_threshold() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    summary = spectrum_cdf(d)
    mapping, _ = build_mapping(d, 4, F(1, 20))
    achieved = divergence(d, apply_mapping(d, mapping), variational())
    distortion = mapping_distortion(d, mapping, HAMMING2)
    assert distortion <= d_threshold(summary, variational(), achieved, HAMMING2)


# ---------------------------------------------------------------------------
# the combined report


def test_report_with_a_generous_budget() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    summary = spectrum_cdf(d)
    report = rdp_lower_bound(
        (F(1, 4), F(3, 4)), HAMMING2, F(1, 2), summary, variational(), F(1, 10)
    )
    assert report.upper == report.kf_value
    assert report.lower == max(report.rd_value, report.kf_value)
    assert report.threshold == pytest.approx(7 / 16)
    assert report.consistent


def test_report_with_a_binding_distortion_budget() -> None:
    d = expand(SourceModel(IID((F(1, 4), F(3, 4))), 2))
    summary = spectrum_cdf(d)
    report = rdp_lower_bound(
        (F(1, 4), F(3, 4)), HAMMING2, F(1, 10), summary, variational(), F(1, 10)
    )
    assert report.upper is None
    assert report.consistent
    assert report.rd_value == pytest.approx(
        binary_entropy(0.25) - binary_entropy(0.1), abs=1e-8
    )


def test_mismatched_shapes_are_rejected() -> None:
    d = expand(SourceModel(IID((F(3, 4), F(1, 4))), 2))
    short = MappingPair(phi=(0, 0, 1), psi=(0, 2), m_n=2)
    with pytest.raises(DimensionMismatch) as excinfo:
        mapping_distortion(d, short, HAMMING2)
    assert str(excinfo.value) == "mapping covers 3 outcomes, source has 4"
    with pytest.raises(DimensionMismatch) as excinfo:
        rd_function_iid((F(1, 2), F(1, 2)), HAMMING3, F(1, 10))
    assert str(excinfo.value) == "distortion matrix does not match the pmf"
