"""Run configurations: INI files describing a source, curves, and grids.

One file drives one command.  Numbers are parsed as exact fractions, so
"1/4", "0.25", and "3" all stay rational until a float-mode run converts
them; that keeps rational-mode runs reproducible byte for byte.

Validation errors carry the line number of the offending key, recorded
while parsing, so a typo in a long grid file is easy to locate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from .divergence import FCurve, curve_from_name
from .errors import ConfigError, OutOfRange
from .probability import DEFAULT_ATOM_CAP, IID, Markov, Mass, Mixture, SourceModel
from .rdp import DistortionSpec

__all__ = ["RunConfig", "load_config"]

COMMANDS = ("analyze", "construct", "oracle", "rdp", "sweep")

_KNOWN_KEYS = {
    "run": {"command", "mode", "units", "cap"},
    "source": {"variant", "alphabet", "n", "pmf", "initial", "weights"},
    "curves": {"names"},
    "grid": {"gamma", "m", "delta", "eps", "d", "n_sweep"},
    "distortion": {"kind"},
    "output": {"dir"},
}


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    command: str
    mode: str
    units: str
    cap: int
    variant: IID | Markov | Mixture
    n: int
    curve_names: tuple[str, ...]
    gammas: tuple[Fraction, ...]
    ms: tuple[int, ...]
    deltas: tuple[Fraction, ...]
    eps: tuple[Fraction, ...]
    ds: tuple[Fraction, ...]
    sweep_ns: tuple[int, ...]
    distortion: DistortionSpec | None
    out_dir: str

    def curves(self) -> tuple[FCurve, ...]:
        return tuple(curve_from_name(name) for name in self.curve_names)

    def source(self) -> SourceModel:
        if self.mode == "float":
            variant = _to_float_variant(self.variant)
        else:
            variant = self.variant
        return SourceModel(variant, self.n)


def _to_float_variant(variant: IID | Markov | Mixture) -> IID | Markov | Mixture:
    if isinstance(variant, IID):
        return IID(tuple(float(p) for p in variant.pmf))
    if isinstance(variant, Markov):
        return Markov(
            tuple(float(p) for p in variant.initial),
            tuple(tuple(float(p) for p in row) for row in variant.transition),
        )
    return Mixture(
        tuple(float(w) for w in variant.weights),
        tuple(IID(tuple(float(p) for p in c.pmf)) for c in variant.components),
    )


class _Located:
    """Parsed file plus the line number of every section header and key."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        self.sections: dict[str, dict[str, str]] = {}
        self.numbers: dict[tuple[str, str | None], int] = {}
        current: dict[str, str] | None = None
        current_name = ""
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                current_name = line[1:-1].strip().lower()
                if current_name in self.sections:
                    self.fail_line(number, f"duplicate section [{current_name}]")
                current = {}
                self.sections[current_name] = current
                self.numbers[current_name, None] = number
                continue
            if current is None:
                self.fail_line(number, "key outside any section")
            if "=" not in line:
                self.fail_line(number, "expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key in current:
                self.fail_line(number, f"duplicate key {key!r}")
            current[key] = value.strip()
            self.numbers[current_name, key] = number

    def fail_line(self, number: int, message: str) -> NoReturn:
        raise ConfigError(f"{self.path}:{number}: {message}")

    def fail(self, section: str, key: str, message: str) -> NoReturn:
        raise ConfigError(f"{self.path}:{self.locate(section, key)}: {message}")

    def locate(self, section: str, key: str | None = None) -> int:
        return self.numbers.get((section, key), 1)

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None or value == "":
            line = self.locate(section) if section in self.sections else 1
            raise ConfigError(f"{self.path}:{line}: [{section}] needs key {key!r}")
        return value


def _fraction(located: _Located, section: str, key: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        located.fail(section, key, f"not a number: {text!r}")


def _positive_int(located: _Located, section: str, key: str, text: str) -> int:
    value = _fraction(located, section, key, text)
    if value.denominator != 1 or value < 1:
        located.fail(section, key, f"{key} must be a positive integer, got {text!r}")
    return int(value)


def _fraction_list(located: _Located, section: str, key: str, text: str) -> tuple[Fraction, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        located.fail(section, key, "empty list")
    return tuple(_fraction(located, section, key, part) for part in parts)


def _int_list(located: _Located, section: str, key: str, text: str) -> tuple[int, ...]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if not re.fullmatch(r"\d+", part):
            located.fail(section, key, f"not an integer: {part!r}")
        values.append(int(part))
    if not values:
        located.fail(section, key, "empty list")
    return tuple(values)


def _check_known_keys(located: _Located) -> None:
    for section, items in located.sections.items():
        if section not in _KNOWN_KEYS:
            line = located.locate(section)
            raise ConfigError(f"{located.path}:{line}: unknown section [{section}]")
        for key in items:
            if key in _KNOWN_KEYS[section]:
                continue
            if section == "source" and re.fullmatch(r"(row|component)\.\d+", key):
                continue
            if section == "distortion" and re.fullmatch(r"row\.\d+", key):
                continue
            located.fail(section, key, f"unknown key {key!r} in [{section}]")


def _indexed_rows(
    located: _Located, section: str, prefix: str, count: int
) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for i in range(count):
        key = f"{prefix}.{i}"
        rows.append(_fraction_list(located, section, key, located.require(section, key)))
    return tuple(rows)


def _parse_variant(located: _Located) -> tuple[IID | Markov | Mixture, int]:
    kind = located.require("source", "variant").lower()
    alphabet = _positive_int(located, "source", "alphabet", located.require("source", "alphabet"))
    n = _positive_int(located, "source", "n", located.require("source", "n"))
    try:
        if kind == "iid":
            pmf = _fraction_list(located, "source", "pmf", located.require("source", "pmf"))
            if len(pmf) != alphabet:
                located.fail("source", "pmf", f"expected {alphabet} entries, got {len(pmf)}")
            return IID(pmf), n
        if kind == "markov":
            initial = _fraction_list(
                located, "source", "initial", located.require("source", "initial")
            )
            rows = _indexed_rows(located, "source", "row", alphabet)
            return Markov(initial, rows), n
        if kind == "mixture":
            weights = _fraction_list(
                located, "source", "weights", located.require("source", "weights")
            )
            components = tuple(
                IID(row) for row in _indexed_rows(located, "source", "component", len(weights))
            )
            return Mixture(weights, components), n
    except ConfigError:
        raise
    except Exception as exc:
        line = located.locate("source")
        raise ConfigError(f"{located.path}:{line}: invalid source: {exc}") from exc
    located.fail("source", "variant", f"unknown variant {kind!r}")


def _parse_distortion(located: _Located) -> DistortionSpec | None:
    if "distortion" not in located.sections:
        return None
    kind = located.require("distortion", "kind").lower()
    size = 0
    while located.get("distortion", f"row.{size}") is not None:
        size += 1
    if size == 0:
        line = located.locate("distortion")
        raise ConfigError(f"{located.path}:{line}: [distortion] needs row.0, row.1, ...")
    rows = _indexed_rows(located, "distortion", "row", size)
    try:
        return DistortionSpec(kind, rows)
    except Exception as exc:
        line = located.locate("distortion")
        raise ConfigError(f"{located.path}:{line}: invalid distortion: {exc}") from exc


def load_config(path: str | Path, command: str | None = None) -> RunConfig:
    """Parse and validate one INI run file.

    A command given by the caller (the CLI subcommand) takes the place of
    the [run] command key; when both are present they must agree.
    """
    located = _Located(path)
    _check_known_keys(located)

    file_command = (located.get("run", "command") or "").lower()
    if command is None:
        if not file_command:
            line = located.locate("run") if "run" in located.sections else 1
            raise ConfigError(f"{located.path}:{line}: [run] needs key 'command'")
        command = file_command
    elif file_command and file_command != command:
        located.fail(
            "run", "command", f"file says {file_command!r} but the run asks for {command!r}"
        )
    if command not in COMMANDS:
        located.fail("run", "command", f"unknown command {command!r}; known: {', '.join(COMMANDS)}")
    mode = (located.get("run", "mode") or "exact").lower()
    if mode not in ("exact", "float"):
        located.fail("run", "mode", f"mode must be exact or float, got {mode!r}")
    units = (located.get("run", "units") or "nats").lower()
    if units not in ("nats", "bits"):
        located.fail("run", "units", f"units must be nats or bits, got {units!r}")
    cap_text = located.get("run", "cap")
    cap = _positive_int(located, "run", "cap", cap_text) if cap_text else DEFAULT_ATOM_CAP

    variant, n = _parse_variant(located)

    names_text = located.require("curves", "names")
    curve_names = tuple(part.strip() for part in names_text.split(",") if part.strip())
    if not curve_names:
        located.fail("curves", "names", "empty curve list")
    for name in curve_names:
        try:
            curve_from_name(name)
        except OutOfRange as exc:
            located.fail("curves", "names", str(exc))

    def grid_fractions(key: str) -> tuple[Fraction, ...]:
        text = located.get("grid", key)
        return _fraction_list(located, "grid", key, text) if text else ()

    def grid_ints(key: str) -> tuple[int, ...]:
        text = located.get("grid", key)
        return _int_list(located, "grid", key, text) if text else ()

    gammas = grid_fractions("gamma")
    deltas = grid_fractions("delta")
    eps = grid_fractions("eps")
    ds = grid_fractions("d")
    ms = grid_ints("m")
    sweep_ns = grid_ints("n_sweep")

    needs = {
        "construct": [("gamma", gammas), ("m", ms)],
        "oracle": [("m", ms)],
        "analyze": [("delta", deltas)],
        "rdp": [("delta", deltas), ("d", ds)],
        "sweep": [("delta", deltas), ("n_sweep", sweep_ns)],
    }
    for key, values in needs[command]:
        if not values:
            line = located.locate("grid") if "grid" in located.sections else 1
            raise ConfigError(f"{located.path}:{line}: command {command} needs [grid] {key}")

    distortion = _parse_distortion(located)
    if command == "rdp" and distortion is None:
        raise ConfigError(f"{located.path}:1: command rdp needs a [distortion] section")

    out_dir = located.get("output", "dir") or "out"

    for gamma in gammas:
        if gamma <= 0:
            located.fail("grid", "gamma", "slack exponents must be positive")
    for m in ms:
        if m < 1:
            located.fail("grid", "m", "codebook sizes must be positive")
    for sweep_n in sweep_ns:
        if sweep_n < 1:
            located.fail("grid", "n_sweep", "blocklengths must be positive")
    for key, values, what in (
        ("delta", deltas, "divergence budgets"),
        ("eps", eps, "tail levels"),
        ("d", ds, "distortion budgets"),
    ):
        if any(value < 0 for value in values):
            located.fail("grid", key, f"{what} must be nonnegative")

    return RunConfig(
        command=command,
        mode=mode,
        units=units,
        cap=cap,
        variant=variant,
        n=n,
        curve_names=curve_names,
        gammas=gammas,
        ms=ms,
        deltas=deltas,
        eps=eps,
        ds=ds,
        sweep_ns=sweep_ns,
        distortion=distortion,
        out_dir=out_dir,
    )
