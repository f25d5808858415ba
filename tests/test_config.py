"""Tests for INI run files: parsing, validation, and error locations."""

from fractions import Fraction

import pytest

from srnglab import (
    IID,
    ConfigError,
    Markov,
    Mixture,
    load_config,
)
from srnglab.probability import DEFAULT_ATOM_CAP

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
names = variational
[grid]
delta = 1/10
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_file_parses_with_defaults(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.command == "analyze"
    assert cfg.mode == "exact"
    assert cfg.units == "nats"
    assert cfg.cap == DEFAULT_ATOM_CAP
    assert cfg.out_dir == "out"
    assert cfg.variant == IID((F(3, 4), F(1, 4)))
    assert cfg.n == 2
    assert cfg.curve_names == ("variational",)
    assert cfg.deltas == (F(1, 10),)


def test_number_forms_all_stay_rational(tmp_path):
    text = BASE.replace("pmf = 3/4, 1/4", "pmf = 0.75, 1/4").replace(
        "delta = 1/10", "delta = 0.1, 2, 1/3"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.variant.pmf == (F(3, 4), F(1, 4))
    assert cfg.deltas == (F(1, 10), F(2), F(1, 3))


def test_source_builds_the_requested_model(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    model = cfg.source()
    assert model.n == 2
    assert model.variant.pmf == (F(3, 4), F(1, 4))


def test_float_mode_converts_masses(tmp_path):
    text = BASE.replace("command = analyze", "command = analyze\nmode = float")
    cfg = load_config(write(tmp_path, text))
    pmf = cfg.source().variant.pmf
    assert all(isinstance(p, float) for p in pmf)
    assert pmf == (0.75, 0.25)
    # The stored variant keeps the exact values; only source() converts.
    assert cfg.variant.pmf == (F(3, 4), F(1, 4))


def test_bad_mode_is_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command = analyze\nmode = rational")
    with pytest.raises(ConfigError, match="mode must be exact or float"):
        load_config(write(tmp_path, text))


def test_bad_units_are_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command = analyze\nunits = hartleys")
    with pytest.raises(ConfigError, match="units must be nats or bits"):
        load_config(write(tmp_path, text))


# Error location tests pin exact line numbers, so they build files line
# by line instead of editing BASE.


def test_bad_fraction_error_names_the_pmf_line(tmp_path):
    lines = [
        "[run]",             # 1
        "command = analyze", # 2
        "[source]",          # 3
        "variant = iid",     # 4
        "alphabet = 2",      # 5
        "n = 1",             # 6
        "pmf = 3/4, oops",   # 7
        "[curves]",          # 8
        "names = variational",
        "[grid]",
        "delta = 1/10",
    ]
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"{path}:7: not a number: 'oops'"):
        load_config(path)
    # A list of separators alone holds no number.
    text = "\n".join(lines) + "\n"
    for empty, line in ((text.replace("3/4, oops", ", ,"), 7), (text.replace("1/10", ","), 11)):
        path = write(tmp_path, empty.replace("oops", "1/4"), "empty.ini")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == f"{path}:{line}: empty list"


def test_unknown_key_error_names_its_line(tmp_path):
    lines = BASE.splitlines()
    lines.insert(2, "colour = blue")  # line 3, inside [run]
    path = write(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=rf"{path}:3: unknown key 'colour'"):
        load_config(path)


def test_unknown_section_error_names_the_header_line(tmp_path):
    path = write(tmp_path, BASE + "[plotting]\nstyle = dark\n")
    line = BASE.count("\n") + 1
    with pytest.raises(ConfigError, match=rf"{path}:{line}: unknown section"):
        load_config(path)


def test_duplicate_section_is_rejected(tmp_path):
    path = write(tmp_path, BASE + "[run]\n")
    with pytest.raises(ConfigError, match=r"duplicate section \[run\]"):
        load_config(path)


def test_duplicate_key_is_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command = analyze\ncommand = oracle")
    with pytest.raises(ConfigError, match="duplicate key 'command'"):
        load_config(write(tmp_path, text))


def test_key_outside_any_section_is_rejected(tmp_path):
    path = write(tmp_path, "command = analyze\n" + BASE)
    with pytest.raises(ConfigError, match=rf"{path}:1: key outside any section"):
        load_config(path)


def test_line_without_equals_is_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command analyze")
    with pytest.raises(ConfigError, match="expected key = value"):
        load_config(write(tmp_path, text))


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_missing_command_is_rejected(tmp_path):
    text = BASE.replace("command = analyze\n", "")
    with pytest.raises(ConfigError, match="needs key 'command'"):
        load_config(write(tmp_path, text))


def test_caller_command_fills_in_a_missing_one(tmp_path):
    text = BASE.replace("command = analyze\n", "")
    cfg = load_config(write(tmp_path, text), command="analyze")
    assert cfg.command == "analyze"


def test_matching_caller_command_is_fine(tmp_path):
    cfg = load_config(write(tmp_path, BASE), command="analyze")
    assert cfg.command == "analyze"


def test_conflicting_caller_command_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="file says 'analyze' but the run asks for 'oracle'"):
        load_config(write(tmp_path, BASE), command="oracle")


def test_unknown_command_is_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command = paint")
    with pytest.raises(ConfigError, match="unknown command 'paint'"):
        load_config(write(tmp_path, text))


def test_unknown_curve_name_is_rejected(tmp_path):
    text = BASE.replace("names = variational", "names = variational, tsallis")
    with pytest.raises(ConfigError, match="tsallis"):
        load_config(write(tmp_path, text))
    path = write(tmp_path, BASE.replace("names = variational", "names = ,"), "empty.ini")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"{path}:9: empty curve list"


def test_repeated_curve_is_rejected_at_its_line(tmp_path):
    # Two spellings of one curve resolve to one name, which the outputs key
    # on; the repeat is reported at the names line.
    for names, repeat in (
        ("e_gamma:2, e_gamma:2.0", "'e_gamma:2.0' repeats curve e_gamma:2"),
        ("variational, hellinger, variational", "'variational' repeats curve variational"),
    ):
        text = BASE.replace("names = variational", f"names = {names}")
        with pytest.raises(ConfigError) as excinfo:
            load_config(write(tmp_path, text))
        assert str(excinfo.value).endswith(f"run.ini:9: {repeat}")


def test_parameterized_curve_names_resolve(tmp_path):
    text = BASE.replace("names = variational", "names = e_gamma:2, e_gamma_sum:1.5")
    cfg = load_config(write(tmp_path, text))
    names = [c.name for c in cfg.curves()]
    assert names == ["e_gamma:2", "e_gamma_sum:3/2"]


def test_wrong_pmf_length_is_rejected(tmp_path):
    text = BASE.replace("pmf = 3/4, 1/4", "pmf = 1/2, 1/4, 1/4")
    with pytest.raises(ConfigError, match="expected 2 entries, got 3"):
        load_config(write(tmp_path, text))


def test_pmf_not_summing_to_one_is_rejected(tmp_path):
    text = BASE.replace("pmf = 3/4, 1/4", "pmf = 3/4, 1/8")
    with pytest.raises(ConfigError, match="invalid source"):
        load_config(write(tmp_path, text))


def test_markov_variant_parses_indexed_rows(tmp_path):
    text = BASE.replace(
        "variant = iid\nalphabet = 2\nn = 2\npmf = 3/4, 1/4",
        "variant = markov\nalphabet = 2\nn = 3\n"
        "initial = 1/2, 1/2\nrow.0 = 9/10, 1/10\nrow.1 = 1/5, 4/5",
    )
    cfg = load_config(write(tmp_path, text))
    assert isinstance(cfg.variant, Markov)
    assert cfg.variant.initial == (F(1, 2), F(1, 2))
    assert cfg.variant.transition == ((F(9, 10), F(1, 10)), (F(1, 5), F(4, 5)))
    assert cfg.n == 3


def test_markov_missing_row_is_rejected(tmp_path):
    text = BASE.replace(
        "variant = iid\nalphabet = 2\nn = 2\npmf = 3/4, 1/4",
        "variant = markov\nalphabet = 2\nn = 3\n"
        "initial = 1/2, 1/2\nrow.0 = 9/10, 1/10",
    )
    with pytest.raises(ConfigError, match=r"needs key 'row.1'"):
        load_config(write(tmp_path, text))


def test_mixture_variant_parses_components(tmp_path):
    text = BASE.replace(
        "variant = iid\nalphabet = 2\nn = 2\npmf = 3/4, 1/4",
        "variant = mixture\nalphabet = 2\nn = 2\n"
        "weights = 2/3, 1/3\ncomponent.0 = 1, 0\ncomponent.1 = 1/2, 1/2",
    )
    cfg = load_config(write(tmp_path, text))
    assert isinstance(cfg.variant, Mixture)
    assert cfg.variant.weights == (F(2, 3), F(1, 3))
    assert cfg.variant.components[0].pmf == (F(1), F(0))


def test_unknown_variant_is_rejected(tmp_path):
    text = BASE.replace("variant = iid", "variant = hidden_markov")
    with pytest.raises(ConfigError, match="unknown variant 'hidden_markov'"):
        load_config(write(tmp_path, text))


GRID_CASES = [
    ("construct", "gamma = 1/10\nm = 2", "gamma"),
    ("construct", "gamma = 1/10\nm = 2", "m"),
    ("oracle", "m = 2", "m"),
    ("analyze", "delta = 1/10", "delta"),
    ("sweep", "delta = 1/10\nn_sweep = 1, 2", "n_sweep"),
]


@pytest.mark.parametrize("command,grid,missing", GRID_CASES)
def test_each_command_demands_its_grid_keys(tmp_path, command, grid, missing):
    text = BASE.replace("command = analyze", f"command = {command}").replace(
        "delta = 1/10", grid
    )
    full = load_config(write(tmp_path, text, "full.ini"))
    assert full.command == command

    pruned_grid = "\n".join(
        line for line in grid.splitlines() if not line.startswith(missing)
    )
    pruned = BASE.replace("command = analyze", f"command = {command}").replace(
        "delta = 1/10", pruned_grid
    )
    if not pruned_grid:
        pruned = pruned.replace("[grid]\n\n", "")
    with pytest.raises(ConfigError, match=rf"command {command} needs \[grid\] {missing}"):
        load_config(write(tmp_path, pruned, "pruned.ini"))


def test_rdp_needs_delta_d_and_a_distortion_section(tmp_path):
    text = BASE.replace("command = analyze", "command = rdp").replace(
        "delta = 1/10", "delta = 1/10\nd = 1/20"
    )
    with pytest.raises(ConfigError, match=r"rdp needs a \[distortion\] section"):
        load_config(write(tmp_path, text))

    full = text + "[distortion]\nkind = additive\nrow.0 = 0, 1\nrow.1 = 1, 0\n"
    cfg = load_config(write(tmp_path, full, "full.ini"))
    assert cfg.distortion is not None
    assert cfg.distortion.kind == "additive"
    assert cfg.distortion.entries == ((F(0), F(1)), (F(1), F(0)))


def test_distortion_without_rows_is_rejected(tmp_path):
    text = BASE + "[distortion]\nkind = additive\n"
    with pytest.raises(ConfigError, match=r"\[distortion\] needs row.0"):
        load_config(write(tmp_path, text))


def test_invalid_distortion_matrix_is_rejected(tmp_path):
    text = BASE + "[distortion]\nkind = additive\nrow.0 = 0, 1\nrow.1 = 1\n"
    with pytest.raises(ConfigError, match="invalid distortion"):
        load_config(write(tmp_path, text))


def test_nonpositive_gamma_is_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command = construct").replace(
        "delta = 1/10", "gamma = 0\nm = 2"
    )
    with pytest.raises(ConfigError, match="slack exponents must be positive"):
        load_config(write(tmp_path, text))


def test_zero_codebook_size_is_rejected(tmp_path):
    text = BASE.replace("command = analyze", "command = oracle").replace(
        "delta = 1/10", "m = 0"
    )
    with pytest.raises(ConfigError, match="codebook sizes must be positive"):
        load_config(write(tmp_path, text))


def test_negative_delta_is_rejected(tmp_path):
    text = BASE.replace("delta = 1/10", "delta = -1/10")
    with pytest.raises(ConfigError, match="divergence budgets must be nonnegative"):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "key, message",
    [("eps", "tail levels must be nonnegative"), ("d", "distortion budgets must be nonnegative")],
)
def test_negative_eps_and_d_are_rejected_at_their_line(tmp_path, key, message):
    path = write(tmp_path, BASE.replace("delta = 1/10", f"delta = 1/10\n{key} = 1/8, -1/8"))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"{path}:12: {message}"
    # Zero is allowed.
    zero = write(tmp_path, BASE.replace("delta = 1/10", f"delta = 1/10\n{key} = 0"), "0.ini")
    cfg = load_config(zero)
    assert cfg.eps + cfg.ds == (F(0),)


def test_comments_and_blank_lines_are_ignored(tmp_path):
    text = "# header comment\n\n; another\n" + BASE.replace(
        "[grid]", "# grid below\n[grid]"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.deltas == (F(1, 10),)


def test_run_overrides_parse(tmp_path):
    text = BASE.replace(
        "command = analyze",
        "command = analyze\nmode = float\nunits = bits\ncap = 4096",
    ) + "[output]\ndir = results\n"
    cfg = load_config(write(tmp_path, text))
    assert (cfg.mode, cfg.units, cfg.cap, cfg.out_dir) == ("float", "bits", 4096, "results")


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("command = analyze", "command = analyze\ncap = lots", 3, "not a number: 'lots'"),
        ("command = analyze", "command = analyze\ncap = -5", 3,
         "cap must be a positive integer, got '-5'"),
        ("command = analyze", "command = analyze\ncap = 0", 3,
         "cap must be a positive integer, got '0'"),
        ("n = 2", "n = 3/2", 6, "n must be a positive integer, got '3/2'"),
        ("n = 2", "n = 0", 6, "n must be a positive integer, got '0'"),
        ("n = 2", "N = 0", 6, "n must be a positive integer, got '0'"),
        ("alphabet = 2", "alphabet = 5/2", 5, "alphabet must be a positive integer, got '5/2'"),
        ("alphabet = 2", "alphabet = -2", 5, "alphabet must be a positive integer, got '-2'"),
        ("delta = 1/10", "delta = 1/10\nn_sweep = 0, 2", 12, "blocklengths must be positive"),
        ("delta = 1/10", "delta = 1/10\nm = 2, 1/2", 12, "not an integer: '1/2'"),
        ("delta = 1/10", "delta = 1/10\nm = 2.0", 12, "not an integer: '2.0'"),
        ("delta = 1/10", "delta = 1/10\nm = , ,", 12, "empty list"),
    ],
    ids=["cap-word", "cap-negative", "cap-zero", "n-ratio", "n-zero", "n-upper-case",
         "alphabet-ratio", "alphabet-negative", "n_sweep-zero", "m-ratio", "m-decimal", "m-empty"],
)
def test_integer_keys_reject_what_is_not_a_positive_integer(tmp_path, old, new, line, message):
    path = write(tmp_path, BASE.replace(old, new))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert str(excinfo.value) == f"{path}:{line}: {message}"


def test_integral_spellings_of_integer_keys_parse(tmp_path):
    text = (
        BASE.replace("command = analyze", "command = analyze\ncap = 8192/2")
        .replace("n = 2", "n = 3.0")
        .replace("alphabet = 2", "alphabet = 4/2")
    )
    cfg = load_config(write(tmp_path, text))
    assert (cfg.cap, cfg.n, cfg.variant.alphabet_size) == (4096, 3, 2)
    assert all(type(value) is int for value in (cfg.cap, cfg.n))
