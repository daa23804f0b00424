"""Command-line front end: config files, single runs, multi-seed sweeps,
and comparison summaries emitted as CSV.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from typing import Callable, Iterator

import numpy as np

from .model import (
    CLUSTERING_MODES,
    CLUSTERING_NONUNIFORM,
    CLUSTERING_UNIFORM,
    PROTOCOL_BASELINE,
    PROTOCOL_PROPOSED,
    PROTOCOLS,
    EnergyParams,
    ScenarioConfig,
)
from .engine import RoundOutcome, _run_seeds

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


def _key_values(config: ScenarioConfig) -> Iterator[tuple[str, object]]:
    """Every config key with its value in ``config``, in echo order: the
    fields of ``ScenarioConfig``, with ``energy`` expanded into its own."""
    for item in fields(config):
        value = getattr(config, item.name)
        if isinstance(value, EnergyParams):
            yield from ((leaf.name, getattr(value, leaf.name)) for leaf in fields(value))
        else:
            yield item.name, value


# Each key's value parser, from the type of its default; choices are case-insensitive.
_PARSERS: dict[str, Callable[[str], object]] = {
    key: str.lower if isinstance(value, str) else type(value)
    for key, value in _key_values(ScenarioConfig())
}


def _build_config(values: dict[str, object], lines: dict[str, int]) -> ScenarioConfig:
    """The defaults with ``values`` (key -> value) applied.

    Energy keys are applied one at a time, in input order, so of several bad
    ones the first is named; the scenario is then validated once, as a whole.
    A rejection names the line of the key its message starts with.
    """
    energy, changes = EnergyParams(), {}
    try:
        for key, value in values.items():
            if hasattr(energy, key):
                energy = replace(energy, **{key: value})
            else:
                changes[key] = value
        return ScenarioConfig(**changes, energy=energy)
    except ValueError as err:
        message = str(err)
        raise ConfigError(message, line=lines.get(message.partition(" ")[0])) from err


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
        if key not in _PARSERS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = _PARSERS[key](value_text)
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
    # the seed is echoed on the ``seeds`` line, which lists every seed a run used
    out = [f"# {key} = {value}" for key, value in _key_values(config) if key != "seed"]
    out.append(f"# seeds = {','.join(str(s) for s in seeds)}")
    return out


def render_run_csv(config: ScenarioConfig, seeds: list[int]) -> str:
    """Run every seed and render the per-round CSV (rows grouped by seed, made as rounds settle)."""
    for seed in seeds:  # all valid before any run
        replace(config, seed=seed)
    rows: list[list[str]] = [[] for _ in seeds]

    def row(lines: list[str], seed: int) -> Callable[[RoundOutcome], None]:
        fields = f"{config.protocol},{config.clustering},{seed}"
        return lambda o: lines.append(f"{o.round_index + 1},{fields},{_fmt(o.total_residual)},"
                                      f"{o.alive},{len(o.cluster_heads)}")

    _run_seeds(config, seeds, [row(lines, seed) for lines, seed in zip(rows, seeds)])
    chunks = [*config_echo_lines(config, seeds), CSV_HEADER, *(r for lines in rows for r in lines)]
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
    for seed in seeds:  # every variant and seed is valid before the first run starts
        replace(config, seed=seed)
    variants = [(name, replace(config, protocol=protocol, clustering=clustering))
                for name, protocol, clustering in _COMPARE_VARIANTS]
    chunks, residual, alive = [*config_echo_lines(config, seeds), SUMMARY_HEADER], {}, {}
    for name, variant in variants:  # each seed's final residual and alive count, first death
        ends = [(final, count, died or config.rounds + 1)
                for *_, final, count, died in _run_seeds(variant, seeds, [None] * len(seeds))]
        finals, alives, deaths = ([float(v) for v in stat] for stat in zip(*ends))
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
    for key in _PARSERS:
        flag = getattr(ns, key, None)
        if flag is not None:
            values[key] = flag
            lines.pop(key, None)
    return _build_config(values, lines)


def _seeds_for(ns: argparse.Namespace, config: ScenarioConfig) -> list[int]:
    if ns.seeds is None:
        return [config.seed]
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
        parser.add_argument("--protocol", type=_PARSERS["protocol"], choices=PROTOCOLS)
        parser.add_argument("--clustering", type=_PARSERS["clustering"], choices=CLUSTERING_MODES)
    parser.add_argument("--k", type=_PARSERS["k"], help="uniform-mode cluster count (default 10)")
    parser.add_argument("--rounds", type=_PARSERS["rounds"])
    parser.add_argument("--seed", type=_PARSERS["seed"])
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
        message = str(err)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
