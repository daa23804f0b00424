"""Command-line front end: config files, single runs, multi-seed sweeps,
and comparison summaries emitted as CSV.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from operator import attrgetter
from typing import Callable

import numpy as np

from .model import (
    CLUSTERING_MODES,
    CLUSTERING_NONUNIFORM,
    CLUSTERING_UNIFORM,
    PROTOCOL_BASELINE,
    PROTOCOL_PROPOSED,
    PROTOCOLS,
    ScenarioConfig,
)
from .engine import run_simulation

CSV_HEADER = "round,protocol,clustering,seed,total_residual_j,alive,ch_count"

SUMMARY_HEADER = (
    "variant,mean_final_residual_j,stddev_final_residual_j,"
    "mean_final_alive,mean_first_death_round"
)


class ConfigError(ValueError):
    """Configuration problem, optionally tied to a config-file line."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# One row per config key, in echo order: (key, ScenarioConfig field path,
# value parser). Parsing, the CSV header echo, command-line flag overrides
# (each flag is named like its key) and error naming all derive from it.
_SCHEMA: tuple[tuple[str, str, Callable[[str], object]], ...] = (
    ("protocol", "protocol", str.lower),
    ("clustering", "clustering", str.lower),
    ("k", "cluster_count", int),
    ("nodes", "n_nodes", int),
    ("rounds", "rounds", int),
    ("p", "ch_probability", float),
    ("field_width", "field_width", float),
    ("field_height", "field_height", float),
    ("fc_x", "fc_position.x", float),
    ("fc_y", "fc_position.y", float),
    ("advanced_fraction", "advanced_fraction", float),
    ("advanced_energy_factor", "advanced_energy_factor", float),
    ("initial_energy", "energy.initial_energy", float),
    ("e_tx", "energy.e_tx", float),
    ("e_aggregation", "energy.e_aggregation", float),
    ("e_rx", "energy.e_rx", float),
    ("e_fs", "energy.e_fs", float),
    ("e_mp", "energy.e_mp", float),
    ("e_elec", "energy.e_elec", float),
    ("e_prop", "energy.e_prop", float),
    ("path_loss", "energy.path_loss", float),
    ("seed", "rng_seed", int),
)

_ROWS = {key: (path, parser) for key, path, parser in _SCHEMA}

# The seed is echoed on the ``seeds`` line, which lists every seed a run used.
_ECHOED = tuple((key, attrgetter(path)) for key, path, _ in _SCHEMA if key != "seed")

# Validation messages start with the field they reject: its path, or its name
# inside a nested dataclass (``e_tx`` for ``energy.e_tx``).
_FIELD_TO_KEY = {
    name: key for key, path, _ in _SCHEMA for name in (path, path.rpartition(".")[2])
}


def _config_error(err: ValueError, lines: dict[str, int]) -> ConfigError:
    """``err`` as a ConfigError naming the config key, and its line if known."""
    if isinstance(err, ConfigError):
        return err
    message = str(err)
    field = message.partition(" ")[0]
    key = _FIELD_TO_KEY.get(field)
    if key is None:
        return ConfigError(message)
    return ConfigError(key + message[len(field):], line=lines.get(key))


def _build_config(values: dict[str, object], lines: dict[str, int]) -> ScenarioConfig:
    """The defaults with ``values`` (config key -> value) applied in one step.

    A nested field is replaced inside its parent first, so the scenario is
    validated once, as a whole.
    """
    default = ScenarioConfig()
    changes: dict[str, object] = {}
    try:
        for key, value in values.items():
            name, _, leaf = _ROWS[key][0].partition(".")
            if leaf:
                value = replace(changes.get(name, getattr(default, name)), **{leaf: value})
            changes[name] = value
        return replace(default, **changes)
    except ValueError as err:
        raise _config_error(err, lines) from err


def _read_config(text: str) -> tuple[dict[str, object], dict[str, int]]:
    """Parse flat ``key = value`` text into key -> value and key -> line."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            column = len(raw) - len(raw.lstrip()) + 1
            raise ConfigError(
                f"expected 'key = value', got {stripped!r}", line=lineno, column=column
            )
        key, _, value_text = stripped.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _ROWS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = _ROWS[key][1](value_text)
        except ValueError as err:
            raise ConfigError(f"invalid value for {key!r}: {err}", line=lineno) from err
        lines[key] = lineno
    return values, lines


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat ``key = value`` text; ``#`` starts a comment.

    Unknown or duplicate keys and out-of-range values are rejected with the
    offending line number; omitted keys keep their defaults.
    """
    return _build_config(*_read_config(text))


def _fmt(value: float) -> str:
    """17 significant digits: parses back to the same float."""
    return format(value, ".16e")


def config_echo_lines(config: ScenarioConfig, seeds: list[int]) -> list[str]:
    """Comment lines restating every effective parameter, config-file syntax."""
    out = [f"# {key} = {get(config)}" for key, get in _ECHOED]
    out.append(f"# seeds = {','.join(str(s) for s in seeds)}")
    return out


def render_run_csv(config: ScenarioConfig, seeds: list[int]) -> str:
    """Run every seed and render the per-round CSV (rows grouped by seed)."""
    configs = [replace(config, rng_seed=seed) for seed in seeds]  # all valid before any run
    chunks = config_echo_lines(config, seeds)
    chunks.append(CSV_HEADER)
    for seed_config in configs:
        for o in run_simulation(seed_config).outcomes:
            chunks.append(
                f"{o.round_index + 1},{config.protocol},{config.clustering},"
                f"{seed_config.rng_seed},{_fmt(o.total_residual)},"
                f"{o.alive},{len(o.cluster_heads)}"
            )
    return "\n".join(chunks) + "\n"


_COMPARE_VARIANTS = (
    ("baseline", PROTOCOL_BASELINE, CLUSTERING_NONUNIFORM),
    ("proposed_uniform", PROTOCOL_PROPOSED, CLUSTERING_UNIFORM),
    ("proposed_nonuniform", PROTOCOL_PROPOSED, CLUSTERING_NONUNIFORM),
)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; nan when the denominator is 0 (no data)."""
    return numerator / denominator if denominator else math.nan


def render_compare_csv(config: ScenarioConfig, seeds: list[int]) -> str:
    """Run all three protocol variants over the seeds and render one summary
    row per variant, then the ratio rows.

    Runs that never lose a node contribute ``rounds + 1`` to the mean
    first-death round (right-censored).
    """
    runs = [  # every variant and seed is valid before the first run starts
        (name, [replace(config, protocol=protocol, clustering=clustering, rng_seed=seed)
                for seed in seeds])
        for name, protocol, clustering in _COMPARE_VARIANTS
    ]
    chunks = config_echo_lines(config, seeds)
    chunks.append(SUMMARY_HEADER)
    residual, alive = {}, {}
    for name, configs in runs:
        finals, alives, deaths = zip(*(
            (r.final_residual, float(r.final_alive),
             float(r.first_death_round or config.rounds + 1))
            for r in map(run_simulation, configs)
        ))
        with np.errstate(over="ignore", invalid="ignore"):
            stats = [float(np.mean(finals)), float(np.std(finals)),
                     float(np.mean(alives)), float(np.mean(deaths))]
        for stat, value in zip(SUMMARY_HEADER.split(",")[1:], stats):
            if not math.isfinite(value):
                raise OverflowError(f"{stat} of {name} is {value}")
        residual[name], alive[name] = stats[0], stats[2]
        chunks.append(",".join([name, *map(_fmt, stats)]))
    ratios = (
        ("ratio_residual_proposed_uniform_over_baseline",
         _ratio(residual["proposed_uniform"], residual["baseline"])),
        ("ratio_residual_proposed_uniform_over_proposed_nonuniform",
         _ratio(residual["proposed_uniform"], residual["proposed_nonuniform"])),
        ("ratio_alive_proposed_uniform_over_baseline",
         _ratio(alive["proposed_uniform"], alive["baseline"])),
    )
    for name, value in ratios:
        chunks.append(f"{name},{_fmt(value)},,,")
    return "\n".join(chunks) + "\n"


def _effective_config(ns: argparse.Namespace) -> ScenarioConfig:
    """Defaults, overlaid by the config file, overlaid by command-line flags.

    File and flag values are merged before the one validation, so a flag can
    repair a file value that is invalid only in combination with others.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config file {ns.config!r}: {err}") from err
        values, lines = _read_config(text)
    for key in _ROWS:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
            lines.pop(key, None)
    return _build_config(values, lines)


def _seeds_for(ns: argparse.Namespace, config: ScenarioConfig) -> list[int]:
    if ns.seeds is None:
        return [config.rng_seed]
    if ns.seed is not None:
        raise ConfigError("--seed and --seeds are mutually exclusive")
    try:
        seeds = [int(part) for part in ns.seeds.split(",") if part.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"invalid --seeds list {ns.seeds!r}: {err}") from err
    if not seeds:
        raise ConfigError("--seeds must list at least one seed")
    return seeds


def _write_output(text: str, out_path: str | None) -> None:
    try:
        if out_path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as err:
        if out_path is None:  # the flush at exit would fail again on the unwritten bytes
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write standard output: {err}") from err
        raise ConfigError(f"cannot write output path {out_path!r}: {err}") from err


def _add_shared_flags(parser: argparse.ArgumentParser, with_protocol: bool) -> None:
    if with_protocol:
        parser.add_argument("--protocol", type=str.lower, choices=PROTOCOLS)
        parser.add_argument("--clustering", type=str.lower, choices=CLUSTERING_MODES)
    parser.add_argument("--k", type=int, help="uniform-mode cluster count (default 10)")
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds", help="comma-separated seed list")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crwsnsim",
        description="Round-based cluster/relay reporting simulator for "
        "spectrum-sensing sensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="simulate one variant, emit per-round CSV")
    _add_shared_flags(run_parser, with_protocol=True)
    run_parser.set_defaults(render=render_run_csv)
    compare_parser = sub.add_parser(
        "compare", help="run all three variants over a seed list, emit summary CSV"
    )
    _add_shared_flags(compare_parser, with_protocol=False)
    compare_parser.set_defaults(render=render_compare_csv)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse already reported to stderr
        return int(exit_.code or 0)
    try:
        config = _effective_config(ns)
        _write_output(ns.render(config, _seeds_for(ns, config)), ns.out)
        return 0
    except OverflowError as err:
        message = f"arithmetic overflow in the run: {err}"
    except MemoryError as err:
        message = f"out of memory in the run: {err}"
    except ValueError as err:
        message = str(_config_error(err, {}))
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
