"""End-to-end tests for the command line front end.

Each test writes an INI file into a tmp dir, invokes main() with an
explicit --out, and inspects the files it leaves behind.  Reference
values come from direct library calls on the same inputs, so these
tests pin the wiring and the serialization, not the mathematics.
"""

import csv
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from srnglab import (
    apply_mapping,
    build_mapping,
    divergence,
    expand,
    min_fdiv_bruteforce,
    variational,
)
from srnglab.cli import main
from srnglab.probability import IID, SourceModel

F = Fraction

BASE = """\
[run]
command = analyze
[source]
variant = iid
alphabet = 2
n = 2
pmf = 3/4, 1/4
[curves]
names = variational, reverse_kl
[grid]
gamma = 1/10
m = 2
delta = 1/10
eps = 1/8
d = 1/20
n_sweep = 1, 2, 3
[distortion]
kind = additive
row.0 = 0, 1
row.1 = 1, 0
"""

MARKOV_SOURCE = (
    "variant = markov\nalphabet = 2\nn = 2\n"
    "initial = 1/2, 1/2\nrow.0 = 9/10, 1/10\nrow.1 = 1/5, 4/5"
)


def run(tmp_path, command, text=None, extra=(), name="run.ini", outname=None):
    """Write the config, invoke the CLI, return (exit code, out dir)."""
    if text is None:
        text = BASE.replace("command = analyze", f"command = {command}")
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / (outname or f"out_{command}")
    code = main([command, str(path), "--out", str(out), *extra])
    return code, out


def quarter_source():
    return expand(SourceModel(IID((F(3, 4), F(1, 4))), 2))


def test_analyze_writes_spectrum_and_rates(tmp_path):
    code, out = run(tmp_path, "analyze")
    assert code == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["command"] == "analyze"
    assert payload["mode"] == "exact"
    assert payload["n"] == 2

    masses = [F(point["mass"]) for point in payload["spectrum"]]
    assert sum(masses) == 1
    assert masses == [F(9, 16), F(3, 8), F(1, 16)]
    values = [point["value"] for point in payload["spectrum"]]
    assert values == sorted(values)

    # eps = 1/8 keeps the two heaviest points, so the quantile is the
    # middle spectrum value.
    assert payload["quantiles"] == [{"eps": "1/8", "value": values[1]}]

    by_curve = {entry["curve"]: entry for entry in payload["rates"]}
    vd = by_curve["variational"]
    assert vd["delta"] == "1/10"
    assert vd["eps"] == "1/10"
    assert vd["k_f_rate"] == vd["quantile"] == values[1]
    assert vd["smooth_set"] == [0, 1, 2]
    assert vd["smooth_set_size"] == 3


def test_analyze_marks_curves_without_monotone_f_as_skipped(tmp_path):
    text = BASE.replace("names = variational, reverse_kl", "names = variational, kl")
    code, out = run(tmp_path, "analyze", text)
    assert code == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["conditions"]["kl"]["nonincreasing"] is False
    skipped = [e for e in payload["rates"] if "skipped" in e]
    assert len(skipped) == 1 and skipped[0]["curve"] == "kl"
    assert any(e["curve"] == "variational" and "k_f_rate" in e for e in payload["rates"])


def test_construct_reports_exact_divergences_within_bounds(tmp_path):
    code, out = run(tmp_path, "construct")
    assert code == 0
    payload = json.loads((out / "construct.json").read_text())
    assert payload["all_within_bounds"] is True
    assert len(payload["mappings"]) == 1

    record = payload["mappings"][0]
    assert record["m"] == 2 and record["gamma"] == "1/10"

    d = quarter_source()
    mapping, _ = build_mapping(d, 2, F(1, 10))
    mapped = apply_mapping(d, mapping)
    want = divergence(d, mapped, variational())
    entry = record["curves"]["variational"]
    assert entry["divergence"] == f"{want.numerator}/{want.denominator}"
    assert entry["within_bounds"] is True
    assert F(entry["converse"] if isinstance(entry["converse"], str) else 0) <= want

    # Collapsing everything to the mode can only do worse.
    base = entry["baseline_divergence"]
    assert F(base) >= want


def test_construct_includes_entropy_mappings(tmp_path):
    code, out = run(tmp_path, "construct")
    assert code == 0
    payload = json.loads((out / "construct.json").read_text())
    entries = payload["entropy_mappings"]
    assert entries, "expected at least one entropy-prefix record"
    for entry in entries:
        assert entry["within_bounds"] is True
        assert entry["m"] >= 1


def test_construct_with_a_codebook_beyond_the_float_range_exits_2(tmp_path, capsys):
    text = BASE.replace("command = analyze", "command = construct").replace(
        "gamma = 1/10", "gamma = 1/10, 400"
    )
    code, _ = run(tmp_path, "construct", text)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: codebook size |core| e^(n gamma) overflows a float at n = 2, gamma = 400\n"
    )


def test_construct_skips_bounds_for_non_monotone_curves(tmp_path):
    text = BASE.replace("command = analyze", "command = construct").replace(
        "names = variational, reverse_kl", "names = variational, kl"
    )
    code, out = run(tmp_path, "construct", text)
    assert code == 0
    payload = json.loads((out / "construct.json").read_text())
    kl_entry = payload["mappings"][0]["curves"]["kl"]
    assert kl_entry["bounds_skipped"] == "curve is not nonincreasing"
    assert "achievability" not in kl_entry
    # kl never contributes entropy-prefix records either.
    assert all(e["curve"] != "kl" for e in payload["entropy_mappings"])


def test_construct_exits_3_when_a_bound_is_violated(tmp_path, monkeypatch):
    import srnglab.cli as cli_module

    def broken_bound(trace, curve):
        return SimpleNamespace(value=-1.0, clamped=False)

    monkeypatch.setattr(cli_module, "achievability_bound", broken_bound)
    code, out = run(tmp_path, "construct")
    assert code == 3
    payload = json.loads((out / "construct.json").read_text())
    assert payload["all_within_bounds"] is False


def test_construct_names_each_escaping_record_on_stderr(tmp_path, monkeypatch, capsys):
    import srnglab.cli as cli_module

    code, out = run(tmp_path, "construct", outname="good")
    assert code == 0
    assert capsys.readouterr().err == ""
    good = json.loads((out / "construct.json").read_text())

    def broken_bound(trace, curve):
        return SimpleNamespace(value=-1.0, clamped=False)

    monkeypatch.setattr(cli_module, "achievability_bound", broken_bound)
    monkeypatch.setattr(cli_module, "entropy_mapping_bound", broken_bound)
    code, out = run(tmp_path, "construct", outname="bad")
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    expected = []
    for name in ("variational", "reverse_kl"):
        entry = good["mappings"][0]["curves"][name]
        exact = entry["divergence"]
        expected.append(
            f"out of bounds: m=2 gamma=1/10 curve={name}: divergence {exact} "
            f"outside [{entry['converse']!r}, -1.0], gap {float(F(exact)) + 1.0!r}"
        )
    for rec in good["entropy_mappings"]:
        exact = rec["divergence"]
        expected.append(
            f"out of bounds: entropy prefix m={rec['m']} gamma=1/10 curve={rec['curve']} "
            f"delta=1/10: divergence {exact} outside [-inf, -1.0], gap {float(F(exact)) + 1.0!r}"
        )
    assert len(expected) == 4
    assert lines == expected

    # The diagnostics stay on stderr: the file differs from a passing run
    # only in the fields the patched bounds feed.
    bad = json.loads((out / "construct.json").read_text())
    for record in bad["mappings"]:
        for entry in record["curves"].values():
            assert entry.pop("achievability") == -1.0
            assert entry.pop("achievability_clamped") is False
            assert entry.pop("within_bounds") is False
    for rec in bad["entropy_mappings"]:
        assert rec.pop("bound") == -1.0
        assert rec.pop("within_bounds") is False
    for record in good["mappings"]:
        for entry in record["curves"].values():
            del entry["achievability"], entry["achievability_clamped"], entry["within_bounds"]
    for rec in good["entropy_mappings"]:
        del rec["bound"], rec["within_bounds"]
    assert bad.pop("all_within_bounds") is False
    assert good.pop("all_within_bounds") is True
    assert bad == good


def test_oracle_matches_a_direct_search(tmp_path):
    code, out = run(tmp_path, "oracle")
    assert code == 0
    payload = json.loads((out / "oracle.json").read_text())
    assert len(payload["minima"]) == 1
    record = payload["minima"][0]
    assert record["m"] == 2

    d = quarter_source()
    direct = dict(min_fdiv_bruteforce(d, 2, [variational()]))["variational"]
    entry = record["curves"]["variational"]
    assert entry["exact"] is True
    assert F(entry["value"]) == direct.value
    assert entry["representatives"] == list(direct.plan.representatives)
    flattened = sorted(i for block in entry["blocks"] for i in block)
    assert flattened == list(range(len(d.masses)))


def test_rdp_reports_are_internally_consistent(tmp_path):
    code, out = run(tmp_path, "rdp")
    assert code == 0
    payload = json.loads((out / "rdp.json").read_text())
    assert payload["rd_curve"] and payload["reports"]
    for row in payload["rd_curve"]:
        assert row["d"] == "1/20"
        assert 0.0 < row["value"] < math.log(2.0)
    for report in payload["reports"]:
        assert report["consistent"] is True
        lower = report["lower"]
        assert lower == max(report["rd"], report["k_f_rate"])
        if report["upper"] is not None:
            assert report["upper"] >= lower


def test_rdp_names_each_inconsistent_report_on_stderr(tmp_path, monkeypatch, capsys):
    import srnglab.cli as cli_module

    code, out = run(tmp_path, "rdp", outname="good")
    assert code == 0
    assert capsys.readouterr().err == ""
    good = json.loads((out / "rdp.json").read_text())

    real = cli_module._rdp_report

    def inverted_bound(*args):
        report = real(*args)
        return SimpleNamespace(rd_value=report.rd_value, kf_value=report.kf_value,
                               lower=0.75, upper=0.5, consistent=False)

    monkeypatch.setattr(cli_module, "_rdp_report", inverted_bound)
    code, out = run(tmp_path, "rdp", outname="bad")
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        f"inconsistent: curve={name} delta=1/10 d=1/20: lower 0.75 > upper 0.5"
        for name in ("variational", "reverse_kl")
    ]

    # rdp.json differs from a consistent run only in the patched fields.
    bad = json.loads((out / "rdp.json").read_text())
    assert len(bad["reports"]) == 2
    for report in bad["reports"]:
        patched = (report.pop("lower"), report.pop("upper"), report.pop("consistent"))
        assert patched == (0.75, 0.5, False)
    for report in good["reports"]:
        del report["lower"], report["upper"], report["consistent"]
    assert bad == good


@pytest.mark.parametrize(
    "command, key, old, what",
    [("rdp", "d", "d = 1/20", "distortion budgets"), ("analyze", "eps", "eps = 1/8", "tail levels")],
)
def test_negative_distortion_or_tail_level_exits_2_naming_its_line(
    tmp_path, capsys, command, key, old, what
):
    text = BASE.replace("command = analyze", f"command = {command}").replace(old, f"{key} = -1/10")
    code, _ = run(tmp_path, command, text)
    assert code == 2
    line = text.splitlines().index(f"{key} = -1/10") + 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'run.ini'}:{line}: {what} must be nonnegative\n"
    )


def test_rdp_rejects_markov_sources(tmp_path, capsys):
    text = BASE.replace("command = analyze", "command = rdp").replace(
        "variant = iid\nalphabet = 2\nn = 2\npmf = 3/4, 1/4", MARKOV_SOURCE
    )
    code, _ = run(tmp_path, "rdp", text)
    assert code == 2
    assert "error: the rdp command needs an iid source" in capsys.readouterr().err


def test_sweep_writes_one_row_per_point(tmp_path):
    code, out = run(tmp_path, "sweep")
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 curves x 3 blocklengths x 2 quantities.
    assert len(rows) == 12
    assert {row["quantity"] for row in rows} == {"k_f_rate", "smooth_max_entropy_rate"}
    assert {row["curve"] for row in rows} == {"variational", "reverse_kl"}
    for row in rows:
        assert row["delta"] == "0.1"
        assert float(row["value"]) > 0
    vd_nu = {row["nu"] for row in rows if row["curve"] == "variational"}
    assert vd_nu == {"0.1"}
    # reverse_kl derives its tail budget through the inverse curve.
    rkl_nu = sorted({float(row["nu"]) for row in rows if row["curve"] == "reverse_kl"})
    assert rkl_nu == [pytest.approx(1 - math.exp(-0.1))]


def test_sweep_skips_curves_without_monotone_f(tmp_path, capsys):
    text = BASE.replace("command = analyze", "command = sweep").replace(
        "names = variational, reverse_kl", "names = variational, kl"
    )
    code, out = run(tmp_path, "sweep", text)
    assert code == 0
    assert "skipping kl: not nonincreasing" in capsys.readouterr().err
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["curve"] == "variational" for row in rows)


def test_sweep_rejects_markov_sources(tmp_path, capsys):
    text = BASE.replace("command = analyze", "command = sweep").replace(
        "variant = iid\nalphabet = 2\nn = 2\npmf = 3/4, 1/4", MARKOV_SOURCE
    )
    code, _ = run(tmp_path, "sweep", text)
    assert code == 2
    assert "needs an iid or mixture source" in capsys.readouterr().err


def test_float_sweep_beyond_the_direct_limit_exits_2_before_any_work(tmp_path, capsys):
    text = (
        BASE.replace("command = analyze", "command = sweep")
        .replace("pmf = 3/4, 1/4", "pmf = 0.25, 0.75")
        .replace("n_sweep = 1, 2, 3", "n_sweep = 1, 2, 3, 20")
    )
    code, out = run(tmp_path, "sweep", text, extra=["--float"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: float sweep cannot reach n = 20: 2^20 outcomes exceed the direct limit 16384 "
        "and the type-class route needs exact arithmetic (use --exact)\n"
    )
    assert not (out / "sweep.csv").exists()
    code, out = run(tmp_path, "sweep", text, extra=["--exact"], outname="exact")
    assert code == 0
    assert (out / "sweep.csv").read_text().count("\n") == 1 + 2 * 4 * 2


def test_sweep_cap_bounds_float_sweeps_only(tmp_path, capsys):
    # An exact sweep walks type classes and never expands, so a cap below
    # 2^3 leaves it alone; a float sweep expands and stops at the cap.
    text = BASE.replace("command = analyze", "command = sweep")
    code, out = run(tmp_path, "sweep", text, extra=["--cap", "4"])
    assert code == 0
    assert (out / "sweep.csv").read_text().count("\n") == 1 + 2 * 3 * 2
    code, out = run(tmp_path, "sweep", text, extra=["--cap", "4", "--float"], outname="float")
    assert code == 2
    assert capsys.readouterr().err == "error: outcome space holds 8 atoms, cap is 4\n"
    assert not (out / "sweep.csv").exists()


def test_units_bits_divides_by_log_two(tmp_path):
    _, out_nats = run(tmp_path, "analyze", name="nats.ini", outname="nats")
    code, out_bits = run(
        tmp_path, "analyze", extra=["--units", "bits"], name="bits.ini", outname="bits"
    )
    assert code == 0
    nats = json.loads((out_nats / "analyze.json").read_text())
    bits = json.loads((out_bits / "analyze.json").read_text())
    assert bits["units"] == "bits"
    ln2 = math.log(2.0)
    for low, high in zip(nats["spectrum"], bits["spectrum"]):
        assert high["value"] == pytest.approx(low["value"] / ln2)
        # Masses are probabilities, not rates, so they never rescale.
        assert high["mass"] == low["mass"]
    vd_nats = next(e for e in nats["rates"] if e["curve"] == "variational")
    vd_bits = next(e for e in bits["rates"] if e["curve"] == "variational")
    assert vd_bits["k_f_rate"] == pytest.approx(vd_nats["k_f_rate"] / ln2)


def test_float_flag_switches_arithmetic(tmp_path):
    code, out = run(tmp_path, "construct", extra=["--float"])
    assert code == 0
    payload = json.loads((out / "construct.json").read_text())
    assert payload["mode"] == "float"
    entry = payload["mappings"][0]["curves"]["variational"]
    assert isinstance(entry["divergence"], float)
    assert entry["divergence"] == pytest.approx(7 / 16)


def test_exact_flag_overrides_float_mode_in_the_file(tmp_path):
    text = BASE.replace("command = analyze", "command = construct\nmode = float")
    code, out = run(tmp_path, "construct", text, extra=["--exact"])
    assert code == 0
    payload = json.loads((out / "construct.json").read_text())
    assert payload["mode"] == "exact"
    assert payload["mappings"][0]["curves"]["variational"]["divergence"] == "7/16"


def test_exact_and_float_flags_conflict(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE)
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(path), "--exact", "--float"])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_cap_flag_limits_the_outcome_space(tmp_path, capsys):
    text = BASE.replace("n = 2", "n = 10")
    code, _ = run(tmp_path, "analyze", text, extra=["--cap", "100"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")

    code, out = run(tmp_path, "analyze", text, extra=["--cap", "2000"], name="ok.ini")
    assert code == 0
    assert (out / "analyze.json").exists()


def test_cap_flag_overrides_the_file_cap(tmp_path, capsys):
    text = BASE.replace("command = analyze", "command = analyze\ncap = 100").replace(
        "n = 2", "n = 10"
    )
    code, _ = run(tmp_path, "analyze", text)
    assert code == 2
    assert "cap is 100" in capsys.readouterr().err
    code, out = run(tmp_path, "analyze", text, extra=["--cap", "2000"], name="ok.ini")
    assert code == 0
    assert (out / "analyze.json").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--cap", "0"], "srnglab analyze: error: argument --cap: must be a positive integer, got 0"),
        (["--cap", "-3"], "srnglab analyze: error: argument --cap: must be a positive integer, got -3"),
        (["--cap", "lots"], "srnglab analyze: error: argument --cap: invalid int value: 'lots'"),
        (["--caps", "2000"], "srnglab: error: unrecognized arguments: --caps 2000"),
    ],
    ids=["zero", "negative", "word", "caps-spelling"],
)
def test_bad_cap_flags_are_usage_errors(tmp_path, capsys, extra, message):
    # The file sets a valid cap, so a flag dropped on the floor would run.
    text = BASE.replace("command = analyze", "command = analyze\ncap = 4096")
    with pytest.raises(SystemExit) as excinfo:
        run(tmp_path, "analyze", text, extra=extra)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == message


def test_bad_file_cap_exits_2_with_a_located_message(tmp_path, capsys):
    text = BASE.replace("command = analyze", "command = analyze\ncap = lots")
    code, _ = run(tmp_path, "analyze", text)
    assert code == 2
    assert ":3: not a number: 'lots'" in capsys.readouterr().err


def test_config_errors_exit_2_with_a_located_message(tmp_path, capsys):
    text = BASE.replace("pmf = 3/4, 1/4", "pmf = 3/4, oops")
    code, _ = run(tmp_path, "analyze", text)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # pmf sits on line 7 of the template.
    assert ":7: not a number: 'oops'" in err


def test_command_mismatch_exits_2(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(BASE.replace("command = analyze", "command = construct"))
    code = main(["analyze", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "file says 'construct'" in capsys.readouterr().err


def test_output_dir_from_the_file_is_respected(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.ini"
    path.write_text(BASE + "[output]\ndir = files\n")
    assert main(["analyze", str(path)]) == 0
    assert (tmp_path / "files" / "analyze.json").exists()


def test_reruns_are_byte_identical(tmp_path):
    _, first = run(tmp_path, "construct", name="a.ini")
    path = tmp_path / "b.ini"
    path.write_text(BASE.replace("command = analyze", "command = construct"))
    second = tmp_path / "again"
    assert main(["construct", str(path), "--out", str(second)]) == 0
    assert (first / "construct.json").read_bytes() == (second / "construct.json").read_bytes()
    # Rerunning into the same directory rewrites the same bytes too.
    assert main(["construct", str(path), "--out", str(second)]) == 0
    assert (first / "construct.json").read_bytes() == (second / "construct.json").read_bytes()
