import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crwsnsim
from crwsnsim import ConfigError, EnergyParams, ScenarioConfig, parse_config, run_simulation
from crwsnsim.cli import (
    CSV_HEADER,
    _effective_config,
    config_echo_lines,
    main,
    render_run_csv,
)

ECHO_KEYS = [
    "protocol", "clustering", "k", "nodes", "rounds", "p",
    "field_width", "field_height", "fc_x", "fc_y",
    "advanced_fraction", "advanced_energy_factor",
    "initial_energy", "e_tx", "e_aggregation", "e_rx", "e_fs", "e_mp",
    "e_elec", "e_prop", "path_loss", "seeds",
]


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        config = parse_config("")
        assert config == ScenarioConfig()
        assert config.energy.initial_energy == 0.5
        assert config.p == 0.1
        assert config.rounds == 1500
        assert config.nodes == 100
        assert (config.fc_x, config.fc_y) == (50.0, 50.0)

    def test_overrides_applied(self):
        config = parse_config("rounds = 10\nnodes = 4")
        assert config.rounds == 10
        assert config.nodes == 4
        assert config.p == 0.1  # untouched default

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nrounds = 7  # trailing comment\n"
        assert parse_config(text).rounds == 7

    def test_out_of_range_value_names_key(self):
        with pytest.raises(ConfigError, match=r"^line 1: p must be in \(0, 1\]") as info:
            parse_config("p = 1.5")
        assert info.value.line == 1

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="unknown key 'frobnicate'") as info:
            parse_config("rounds = 5\nfrobnicate = 3\n")
        assert info.value.line == 2

    def test_malformed_line_reports_line_and_column(self):
        with pytest.raises(ConfigError, match="line 2, column 3") as info:
            parse_config("rounds = 5\n  just words\n")
        assert info.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key") as info:
            parse_config("rounds = 5\nrounds = 6\n")
        assert info.value.line == 2

    def test_bad_value_type_reports_line(self):
        with pytest.raises(ConfigError, match="rounds") as info:
            parse_config("rounds = soon")
        assert info.value.line == 1

    def test_energy_and_geometry_keys(self):
        config = parse_config(
            "initial_energy = 2.0\ne_fs = 2e-11\nfc_x = 50\nfc_y = 175\n"
            "protocol = proposed\nclustering = uniform\nk = 4\nseed = 19\n"
        )
        assert config.energy.initial_energy == 2.0
        assert config.energy.e_fs == 2e-11
        assert config.fc_y == 175.0
        assert config.protocol == "proposed"
        assert config.clustering == "uniform"
        assert config.k == 4
        assert config.seed == 19

    def test_cross_field_violation_named(self):
        with pytest.raises(ConfigError, match=r"^line 2: k must be in \[1, nodes\]"):
            parse_config("nodes = 5\nk = 9\nclustering = uniform\n")


class TestFlagPrecedence:
    def _namespace(self, **kwargs):
        defaults = dict(protocol=None, clustering=None, k=None, rounds=None,
                        seed=None, seeds=None, config=None, out=None)
        defaults.update(kwargs)
        return argparse.Namespace(**defaults)

    def test_three_layers(self, tmp_path):
        config_file = tmp_path / "scenario.cfg"
        config_file.write_text("rounds = 7\nnodes = 12\n")
        # defaults only
        assert _effective_config(self._namespace()).rounds == 1500
        # config file beats defaults
        ns = self._namespace(config=str(config_file))
        effective = _effective_config(ns)
        assert effective.rounds == 7
        assert effective.nodes == 12
        # flag beats config file
        ns = self._namespace(config=str(config_file), rounds=3)
        effective = _effective_config(ns)
        assert effective.rounds == 3
        assert effective.nodes == 12

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="missing.cfg"):
            _effective_config(self._namespace(config="missing.cfg"))


class TestRunCommand:
    def test_row_count_and_round_column(self, tmp_path, capsys):
        code = main(["run", "--protocol", "baseline", "--seed", "7", "--rounds", "10"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines()
                if line and not line.startswith("#") and line != CSV_HEADER]
        assert len(rows) == 10
        assert [int(r.split(",")[0]) for r in rows] == list(range(1, 11))
        assert all(r.split(",")[1] == "baseline" for r in rows)
        assert all(r.split(",")[3] == "7" for r in rows)

    def test_reruns_byte_identical(self, tmp_path):
        args = ["run", "--protocol", "proposed", "--clustering", "uniform",
                "--k", "10", "--seed", "3", "--rounds", "40"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_header_echoes_every_parameter(self, capsys):
        assert main(["run", "--rounds", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        comment_keys = [line[1:].split("=")[0].strip()
                        for line in out.splitlines() if line.startswith("#")]
        for key in ECHO_KEYS:
            assert key in comment_keys, f"missing echo for {key}"

    def test_csv_round_trip_recovers_metrics(self):
        # 17 significant digits: float() recovers each residual exactly
        config = ScenarioConfig(nodes=10, rounds=60, seed=3,
                                protocol="proposed", clustering="uniform",
                                k=2)
        config = replace(
            config, energy=replace(config.energy, initial_energy=2e-7)
        )
        text = render_run_csv(config, [3])
        rows = [line.split(",") for line in text.splitlines()
                if not line.startswith("#") and line != CSV_HEADER]
        parsed = [(int(r[0]), float(r[4]), int(r[5]), int(r[6])) for r in rows]
        expected = [(o.round_index + 1, o.total_residual, o.alive, len(o.cluster_heads))
                    for o in run_simulation(replace(config, seed=3)).outcomes]
        assert parsed == expected
        assert {(r[1], r[2], r[3]) for r in rows} == {("proposed", "uniform", "3")}
        assert parsed[-1][2] < 10  # deaths happened, so residuals are not all equal

    def test_seed_list_groups_rows(self, capsys):
        assert main(["run", "--rounds", "2", "--seeds", "4,2"]) == 0
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith("#") and line != CSV_HEADER]
        assert [(r[3], r[0]) for r in rows] == [
            ("4", "1"), ("4", "2"), ("2", "1"), ("2", "2")
        ]

    def test_seed_and_seeds_conflict(self, capsys):
        code = main(["run", "--seed", "1", "--seeds", "1,2", "--rounds", "1"])
        assert code != 0
        assert "--seeds" in capsys.readouterr().err

    def test_invalid_protocol_flag(self, capsys):
        code = main(["run", "--protocol", "flooding"])
        assert code != 0
        assert "--protocol" in capsys.readouterr().err

    def test_choice_flags_are_case_insensitive(self, tmp_path):
        # as in a config file, where `protocol = Proposed` runs
        args = ["run", "--k", "10", "--seed", "3", "--rounds", "40"]
        mixed, lower = tmp_path / "mixed.csv", tmp_path / "lower.csv"
        assert main(args + ["--protocol", "Proposed", "--clustering", "UNIFORM",
                            "--out", str(mixed)]) == 0
        assert main(args + ["--protocol", "proposed", "--clustering", "uniform",
                            "--out", str(lower)]) == 0
        assert mixed.read_bytes() == lower.read_bytes()

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "not_a_dir" / "out.csv"
        code = main(["run", "--rounds", "1", "--out", str(target)])
        assert code != 0
        assert "not_a_dir" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("p = 40\n")
        code = main(["run", "--config", str(bad), "--rounds", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: line 1: p must be in (0, 1]")

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"\xffnodes = 10\n")
        assert main(["run", "--config", str(bad), "--rounds", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config file {str(bad)!r}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte\n"
        )


class TestCompareCommand:
    def test_zero_rounds_all_variants_full_battery(self, capsys):
        assert main(["compare", "--seeds", "5", "--rounds", "0"]) == 0
        out = capsys.readouterr().out
        data = [line.split(",") for line in out.splitlines()
                if line and not line.startswith("#")]
        header, rows = data[0], data[1:]
        assert header[0] == "variant"
        by_name = {r[0]: r for r in rows}
        for variant in ("baseline", "proposed_uniform", "proposed_nonuniform"):
            assert float(by_name[variant][1]) == pytest.approx(50.0, rel=1e-12)
            assert float(by_name[variant][3]) == pytest.approx(100.0, rel=1e-12)
        for ratio in (
            "ratio_residual_proposed_uniform_over_baseline",
            "ratio_residual_proposed_uniform_over_proposed_nonuniform",
            "ratio_alive_proposed_uniform_over_baseline",
        ):
            assert float(by_name[ratio][1]) == pytest.approx(1.0, rel=1e-12)

    def test_summary_deterministic(self, tmp_path):
        args = ["compare", "--seeds", "1,2", "--rounds", "30"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_paired_seed_alive_dominance(default_sweep):
    # final alive count of the proposed uniform variant should match or beat
    # the baseline for the same seed in at least 80% of 20 seeds
    pairs = zip(default_sweep["proposed_uniform"], default_sweep["baseline"])
    wins = sum(
        proposed.final_alive >= baseline.final_alive for proposed, baseline in pairs
    )
    assert wins >= 16


def test_echo_lines_parse_back():
    # the echoed header is itself valid config syntax (seed travels via
    # the seeds line and the per-row seed column)
    config = ScenarioConfig(rounds=9, nodes=17)
    echoed = "\n".join(
        line[1:].strip() for line in config_echo_lines(config, [4])
        if not line.startswith("# seeds")
    )
    assert parse_config(echoed) == config


# key -> (config-file text, the value it parses to): one valid, non-default
# value per key, in echo order
KEY_VALUES = {
    "protocol": ("Proposed", "proposed"),
    "clustering": ("UNIFORM", "uniform"),
    "k": ("7", 7),
    "nodes": ("12", 12),
    "rounds": ("9", 9),
    "p": ("0.25", 0.25),
    "field_width": ("80", 80.0),
    "field_height": ("60.5", 60.5),
    "fc_x": ("-3", -3.0),
    "fc_y": ("400", 400.0),
    "advanced_fraction": ("0.2", 0.2),
    "advanced_energy_factor": ("1.5", 1.5),
    "initial_energy": ("2", 2.0),
    "e_tx": ("4e-8", 4e-8),
    "e_aggregation": ("6e-9", 6e-9),
    "e_rx": ("3e-8", 3e-8),
    "e_fs": ("2e-11", 2e-11),
    "e_mp": ("1e-15", 1e-15),
    "e_elec": ("4e-8", 4e-8),
    "e_prop": ("2e-11", 2e-11),
    "path_loss": ("0.4", 0.4),
    "seed": ("19", 19),
}


@pytest.mark.parametrize("key", list(KEY_VALUES))
def test_each_key_is_the_field_of_its_name(key):
    # one vocabulary: a key sets the ScenarioConfig field (or, for the radio
    # constants, the EnergyParams field) of the same name, as a keyword does
    text, value = KEY_VALUES[key]
    config = parse_config(f"{key} = {text}")
    if key in {item.name for item in fields(EnergyParams)}:
        parsed, keywords = getattr(config.energy, key), {"energy": EnergyParams(**{key: value})}
    else:
        parsed, keywords = getattr(config, key), {key: value}
    assert type(parsed) is type(value) and parsed == value
    assert ScenarioConfig(**keywords) == config


def test_echo_lists_keys_in_field_order():
    names = [item.name for item in fields(ScenarioConfig)]
    at = names.index("energy")
    names[at:at + 1] = [item.name for item in fields(EnergyParams)]
    assert names == list(KEY_VALUES)
    echoed = [line[2:].split(" = ")[0] for line in config_echo_lines(ScenarioConfig(), [1])]
    assert echoed == [name for name in names if name != "seed"] + ["seeds"] == ECHO_KEYS


def _cli(directory, argv, config_text):
    """Exit code of ``main`` on ``argv`` plus a config file holding ``config_text``."""
    config = Path(directory) / "case.cfg"
    config.write_text(config_text)
    return main([*argv, "--config", str(config)])


# the check on the box that holds the field and the fusion centre
_PRICEABLE = "must keep the field and fusion centre within a link length that link_cost can price"

# case -> (argv, config-file text, start of the one stderr line after "error: ")
ERROR_CASES = {
    "negative-seed": (["run", "--seed", "-1", "--rounds", "3"], "", "seed must be >= 0"),
    "negative-seed-in-list": (
        ["run", "--seeds", "1,-1", "--rounds", "3"], "", "seed must be >= 0"
    ),
    # the bad value came from the flag, so no file line is named
    "flag-over-file-seed": (
        ["run", "--seed", "-1", "--rounds", "3"], "seed = 5\n", "seed must be >= 0"
    ),
    "fc-x-nan": (["run", "--rounds", "3"], "fc_x = nan\n", "line 1: fc_x must be finite"),
    "fc-y-inf": (["run", "--rounds", "3"], "fc_y = inf\n", "line 1: fc_y must be finite"),
    "advanced-factor-inf": (
        ["run", "--rounds", "3"],
        "advanced_fraction = 0.5\nadvanced_energy_factor = inf\n",
        "line 2: advanced_energy_factor must be finite",
    ),
    # compare runs a uniform variant with k = 10 heads whatever the file says
    "compare-5-nodes": (
        ["compare", "--seeds", "1", "--rounds", "3"], "nodes = 5\n", "k must be in"
    ),
    "compare-9-nodes": (
        ["compare", "--seeds", "1", "--rounds", "3"], "nodes = 9\n", "k must be in"
    ),
    "compare-uniform-p": (
        ["compare", "--seeds", "1", "--rounds", "3"], "nodes = 10\np = 0.05\n", "p * nodes"
    ),
    # a 1e80 m link has no finite d^4: the fusion centre is named, before any round
    "multipath-overflow": (
        ["run", "--rounds", "3"], "e_mp = 1e300\nfc_y = 1e80\n",
        f"line 2: fc_y {_PRICEABLE}, got a diagonal of 1e+80 m",
    ),
    "compare-mean-overflow": (
        ["compare", "--seeds", "1,2", "--rounds", "2"],
        "nodes = 12\ninitial_energy = 1e307\n",
        "arithmetic overflow in the run: mean_final_residual_j of baseline is inf",
    ),
    "fc-corner-overflow": (
        ["run", "--rounds", "2"],
        "field_width = 1.7e308\nfc_x = -1.7e308\nnodes = 3\n",
        f"line 2: fc_x {_PRICEABLE}, got a diagonal of inf m",
    ),
    "fc-y-corner-overflow": (
        ["run", "--rounds", "2"],
        "field_height = 1.7e308\nfc_y = -1.7e308\nnodes = 3\n",
        f"line 2: fc_y {_PRICEABLE}, got a diagonal of inf m",
    ),
    "field-diagonal-overflow": (
        ["run", "--rounds", "2"],
        "field_width = 1.7e308\nfield_height = 1.7e308\nnodes = 3\n",
        f"line 1: field_width {_PRICEABLE}, got a diagonal of inf m",
    ),
    # 1 / 5e-309 overflows, so the epoch length round(1/p) cannot be formed
    "p-epoch-overflow": (
        ["run", "--rounds", "2"], "p = 5e-309\n", "line 1: p must be in (0, 1] with 1/p finite"
    ),
    "zero-nodes": (
        ["run", "--rounds", "3"], "nodes = 0\n", "line 1: nodes must be >= 1, got 0"
    ),
    "negative-rounds": (["run"], "rounds = -1\n", "line 1: rounds must be >= 0, got -1"),
    # bad radio constants are named in file order, ahead of the scenario's checks
    "energy-keys-in-file-order": (
        ["run", "--rounds", "3"], "e_rx = -1\ne_tx = -1\n",
        "line 1: e_rx must be a positive finite number",
    ),
    "energy-key-before-scenario-key": (
        ["run", "--rounds", "3"], "nodes = 0\ne_rx = -1\n",
        "line 2: e_rx must be a positive finite number",
    ),
    "advanced-fraction-above-one": (
        ["run", "--rounds", "3"], "advanced_fraction = 1.5\n",
        "line 1: advanced_fraction must be in [0, 1], got 1.5",
    ),
    "seeds-not-integers": (
        ["run", "--seeds", "x", "--rounds", "3"], "", "invalid --seeds list 'x'"
    ),
    "seeds-empty": (
        ["run", "--seeds", ",", "--rounds", "3"], "", "--seeds must list at least one seed"
    ),
    "unknown-protocol": (
        ["run", "--rounds", "3"], "protocol = flood\n",
        "line 1: protocol must be one of ('baseline', 'proposed'), got 'flood'",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, case):
    argv, config_text, expected = ERROR_CASES[case]
    assert _cli(tmp_path, argv, config_text) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {expected}")


# Validation rejects a fusion centre whose links cannot be priced before any seed
# runs a round, so one seed and three end in the same line, under either clustering.
@pytest.mark.parametrize("clustering", ["nonuniform", "uniform"])
def test_an_unpriceable_run_over_seeds_ends_in_one_validation_error(tmp_path, capsys, clustering):
    argv, config_text, expected = ERROR_CASES["multipath-overflow"]
    ends = []
    for seeds in ("1", "1,2,3"):
        code = _cli(tmp_path, [*argv, "--clustering", clustering, "--seeds", seeds], config_text)
        ends.append((code, *capsys.readouterr()))
    assert ends[0] == ends[1] and ends[0][:2] == (2, "")
    assert ends[0][2] == f"error: {expected}\n"


# Uniform runs of at most 512 nodes take their own path, a table of metres; each case
# still ends in the same line. The three-node cases stop at uniform's k <= nodes check.
@pytest.mark.parametrize("case", sorted(
    case for case, (argv, text, _) in ERROR_CASES.items()
    if argv[0] == "run" and "nodes = 3\n" not in text))
def test_bad_input_under_uniform_clustering_ends_in_the_same_error_line(tmp_path, capsys, case):
    argv, config_text, expected = ERROR_CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print a stray stderr line
        assert _cli(tmp_path, [*argv, "--clustering", "uniform"], config_text) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {expected}")


def test_out_of_memory_ends_in_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(config, seeds, sinks, layouts=None):
        raise MemoryError("Unable to allocate 673. GiB")

    monkeypatch.setattr("crwsnsim.cli._run_seeds", exhausted)
    assert _cli(tmp_path, ["run", "--rounds", "1"], "nodes = 1000000\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: out of memory in the run: Unable to allocate 673. GiB"
    ]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_failed_stdout_write_ends_in_one_error_line():
    # /dev/full refuses every write with ENOSPC; nothing may follow the error
    # line, not even a failed flush when the interpreter exits
    env = {**os.environ, "PYTHONPATH": str(Path(crwsnsim.__file__).resolve().parents[1])}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "crwsnsim", "compare", "--rounds", "5"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env,
                              timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: cannot write standard output: [Errno 28] No space left on device"
    ]


def test_compare_ratio_without_data_is_nan(tmp_path, capsys):
    # every node of every variant dies, so each ratio's denominator is 0
    config_text = "nodes = 20\ninitial_energy = 1e-6\n"
    assert _cli(tmp_path, ["compare", "--seeds", "1", "--rounds", "500"], config_text) == 0
    ratios = [line.split(",") for line in capsys.readouterr().out.splitlines()
              if line.startswith("ratio_")]
    assert len(ratios) == 3
    assert all(row[1] == "nan" for row in ratios)


def test_flag_repairs_file_value_invalid_in_combination(tmp_path, capsys):
    # the default k = 10 exceeds the file's 5 nodes; --k 3 makes the file valid
    config_text = "nodes = 5\nclustering = uniform\np = 0.5\n"
    assert _cli(tmp_path, ["run", "--rounds", "2"], config_text) == 2
    assert capsys.readouterr().err.startswith("error: k must be in")
    assert _cli(tmp_path, ["run", "--rounds", "2", "--k", "3"], config_text) == 0
    assert ",baseline,uniform,42," in capsys.readouterr().out


_EDGE_FLOATS = [0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, -math.inf, math.nan, -1.0]


def _float_text(lo=1e-12, hi=1e3):
    return st.one_of(
        st.floats(min_value=lo, max_value=hi), st.sampled_from(_EDGE_FLOATS)
    ).map(repr)


_CONFIG_VALUES = st.fixed_dictionaries(
    {"nodes": st.integers(1, 12).map(str), "rounds": st.integers(0, 12).map(str)},
    optional={
        "k": st.integers(-1, 12).map(str),
        "seed": st.integers(-1, 2**70).map(str),
        "protocol": st.sampled_from(["baseline", "proposed", "Proposed", "flood"]),
        "clustering": st.sampled_from(["uniform", "nonuniform"]),
        "p": _float_text(0.0, 1.0),
        "advanced_fraction": _float_text(0.0, 1.0),
        "advanced_energy_factor": _float_text(),
        "field_width": _float_text(),
        "field_height": _float_text(),
        "fc_x": _float_text(-1e3),
        "fc_y": _float_text(-1e3),
        **{key: _float_text() for key in (
            "initial_energy", "e_tx", "e_aggregation", "e_rx", "e_fs", "e_mp",
        )},
    },
)


@settings(max_examples=80, deadline=None)
@given(_CONFIG_VALUES, st.sampled_from(["run", "compare"]))
# a head's second reception drives its battery past -1.8e308 to -inf mid-round;
# the end-of-round floor makes it 0.0, and no overflow warning may reach stderr
@example({"nodes": "5", "rounds": "3", "initial_energy": "1e300", "e_rx": "1.7e308"}, "run")
# the multipath-overflow case: validation, not the run, names the 1e80 m link
@example({"rounds": "3", "e_mp": "1e300", "fc_y": "1e80"}, "run")
def test_any_config_runs_finite_or_ends_in_one_error_line(values, command):
    config_text = "".join(f"{key} = {value}\n" for key, value in values.items())
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print a stray stderr line
        with tempfile.TemporaryDirectory() as directory:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _cli(directory, [command], config_text)
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
        rows = [line.split(",") for line in out.getvalue().splitlines()
                if not line.startswith("#")][1:]
        if command == "run":
            numbers = [row[4] for row in rows]
        else:  # a ratio row without data reads nan by design
            numbers = [v for row in rows if not row[0].startswith("ratio_") for v in row[1:]]
        assert all(math.isfinite(float(v)) for v in numbers)
    else:
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # every link is checked priceable before the first round
        assert not lines[0].startswith("error: arithmetic overflow in the run: d^4")
