"""Experiment configuration parsing and reproducible CSV table emission."""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, fields
from functools import cached_property

from .directions import DirectionSet, parse_direction_spec
from .errors import ConfigError, check_half_width, check_seed
from .spectral import DispersionProfile

__version__ = "0.1.0"


@dataclass(frozen=True)
class ExperimentConfig:
    a: float = 2.0
    theta: str = "point:0"
    q: float = 2.0
    sigma: float | None = None  # defaults to q/4 (smallest admissible Sobolev order)
    k_min: int = 2
    k_max: int = 6
    seed: int = 0
    out: str = "."
    trials: int = 6
    x_count: int = 65
    half_width: float = 32.0
    n_grid: int = 512
    s: float = 1.0
    samples_per_region: int = 200
    lambda_min_exp: int = 4
    lambda_max_exp: int = 10
    scale_min_exp: int = 6  # smallest convergence scale 2^-scale_min_exp
    scale_max_exp: int = 1
    delta_min: float = 1e-4
    delta_max: float = 0.1
    n_scales: int = 12

    def resolved_sigma(self) -> float:
        return self.q / 4.0 if self.sigma is None else self.sigma

    def lambdas(self) -> list:
        """The kernel-scan frequencies 2^lambda_min_exp, ..., 2^lambda_max_exp."""
        return [2.0**e for e in range(self.lambda_min_exp, self.lambda_max_exp + 1)]

    @cached_property
    def directions(self) -> DirectionSet:
        """Theta, parsed from `theta` once per config."""
        return parse_direction_spec(self.theta)

    @cached_property
    def profile(self) -> DispersionProfile:
        """Phi = |xi|^a, built once per config."""
        return DispersionProfile.power(self.a)

    def __post_init__(self):
        """Refuse, with ConfigError, any setting outside its documented range."""
        if not 1.0 <= self.q <= 4.0:
            raise ConfigError(f"q={self.q} outside [1, 4]")
        sig = self.resolved_sigma()
        if not sig >= self.q / 4.0 - 1e-12:  # NaN fails too
            raise ConfigError(f"sigma below q/4 (sigma={sig}, q={self.q})")
        if not sig <= 1.0 + 1e-12:
            raise ConfigError(f"sigma above 1 (sigma={sig})")
        self.profile  # DispersionProfile.power checks a
        if not 0.0 < self.s < float("inf"):
            raise ConfigError(f"s={self.s} must be positive and finite")
        check_seed(self.seed)
        if self.trials < 1 or self.x_count < 1:
            raise ConfigError(f"trials={self.trials} and x_count={self.x_count} must be at least 1")
        if self.samples_per_region < 1:
            raise ConfigError(f"samples_per_region={self.samples_per_region} must be at least 1")
        if self.n_grid < 2 or self.n_grid & (self.n_grid - 1):
            raise ConfigError(f"n_grid={self.n_grid} must be a power of two, at least 2")
        check_half_width(self.half_width)
        if not 0.0 < self.delta_min < self.delta_max <= 1.0:
            raise ConfigError(
                f"need 0 < delta_min < delta_max <= 1, got {self.delta_min} and {self.delta_max}"
            )
        if self.n_scales < 4:
            raise ConfigError(f"n_scales={self.n_scales} must be at least 4")
        # lambda = 2^e and scale = 2^-e; float64 powers of two run from 2^-1074,
        # the least subnormal, to 2^1023.  Checked before any list of them is built.
        for key, sign in (("lambda_min_exp", 1), ("lambda_max_exp", 1),
                          ("scale_min_exp", -1), ("scale_max_exp", -1)):
            e = sign * getattr(self, key)
            if e >= sys.float_info.max_exp:
                raise ConfigError(f"{key}={sign * e}: 2^{e} overflows float64")
            if e < sys.float_info.min_exp - sys.float_info.mant_dig:
                raise ConfigError(f"{key}={sign * e}: 2^{e} underflows float64 to 0")
        self.directions  # parsing checks theta

    def canonical(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name == "out":  # where results land does not change them
                continue
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(parts)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    if key == "sigma":
        return float(raw)
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    return raw


def _settings(text: str) -> dict:
    """key=value lines, '#' comments, as a dict; unknown keys are rejected by line number."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key] = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return updates


def parse_config(text: str) -> ExperimentConfig:
    """The config of key=value lines, '#' comments; unset keys keep their defaults."""
    return ExperimentConfig(**_settings(text))


@dataclass
class ResultTable:
    names: tuple  # column names, in CSV order
    rows: tuple  # one tuple of values per CSV line
    provenance: dict

    def __post_init__(self):
        self.names = tuple(self.names)
        self.rows = tuple(map(tuple, self.rows))
        if any(len(row) != len(self.names) for row in self.rows):
            raise ValueError("row length differs from the number of columns")

    def column(self, name: str) -> list:
        i = self.names.index(name)
        return [row[i] for row in self.rows]


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def table_to_csv(table: ResultTable) -> str:
    lines = [f"# {k}={_fmt(v)}" for k, v in sorted(table.provenance.items())]
    lines.append(",".join(table.names))
    lines.extend(",".join(map(_fmt, row)) for row in table.rows)
    return "\n".join(lines) + "\n"


def write_csv(table: ResultTable, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(table_to_csv(table))


def _sniff(raw: str):
    for typ in (int, float):
        try:
            value = typ(raw)
        except ValueError:
            continue
        if _fmt(value) == raw:
            return value
    return raw


def read_csv(path) -> ResultTable:
    """The table write_csv wrote to path. A value reads back as an int or float only
    where write_csv spells that number so; other text (`0.1`, `007`) stays a str."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    provenance = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            provenance[key] = _sniff(val)
        elif line:
            body.append(line)
    rows = [[_sniff(raw) for raw in line.split(",")] for line in body[1:]]
    return ResultTable(names=body[0].split(","), rows=rows, provenance=provenance)


def provenance_block(cfg: ExperimentConfig, **extra) -> dict:
    block = {"config_hash": cfg.digest(), "seed": cfg.seed, "tool_version": __version__}
    block.update(extra)
    return block


def emit_plot_script(table: ResultTable, script_path, csv_name: str) -> None:
    """Write a gnuplot script plotting the table's numeric columns; never executed here."""
    lines = [
        "# generated plot script; run with: gnuplot <this file>",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{table.names[0]}'",
        "set key outside",
        "plot \\",
    ]
    plots = []
    for i, name in enumerate(table.names[1:], start=2):
        plots.append(f"  '{csv_name}' using 1:{i} with linespoints title '{name}'")
    lines.append(", \\\n".join(plots))
    with open(script_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
