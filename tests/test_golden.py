"""Golden outputs: SHA-256 digests of the CLI's CSV bytes for a fixed matrix.

The digests pin every byte the CLI writes: the echoed parameter header and
each per-round or summary row. A change that moves any of them fails here.
The matrix only gains cases; a deliberate re-pin belongs in a change of its
own, with its reason written in CHANGES.md.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest

from crwsnsim import engine
from crwsnsim.cli import main

VARIANTS = (
    ("baseline", "baseline", "nonuniform"),
    ("proposed_uniform", "proposed", "uniform"),
    ("proposed_nonuniform", "proposed", "nonuniform"),
)

# case id -> (argv without --config/--out, config-file text)
CASES = {
    f"{name}-seed{seed}-fc{fc_y}": (
        ["run", "--protocol", protocol, "--clustering", clustering,
         "--seed", str(seed), "--rounds", "30"],
        f"fc_x = 50\nfc_y = {fc_y}\n",
    )
    for name, protocol, clustering in VARIANTS
    for seed in (1, 2)
    for fc_y in (50, 400)
}
# Tiny batteries and a far fusion centre: every node dies before round 1500.
CASES["depletion"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform", "--seed", "1"],
    "initial_energy = 2e-4\nfc_y = 250\n",
)
# Ten nodes at p = 0.1: 12 of the 30 rounds elect no head.
CASES["zero-head-fallback"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform",
     "--seed", "1", "--rounds", "30"],
    "nodes = 10\n",
)
CASES["compare"] = (["compare", "--seeds", "1,2", "--rounds", "30"], "")
# A fifth of the nodes start with 2.5x the battery; all die before round 1500.
CASES["advanced-nodes"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform", "--seed", "3"],
    "advanced_fraction = 0.2\nadvanced_energy_factor = 1.5\ninitial_energy = 2e-4\n"
    "fc_y = 250\n",
)
# Uniform clustering trims and promotes heads by residual energy while nodes die.
CASES["uniform-depletion"] = (
    ["run", "--protocol", "proposed", "--clustering", "uniform", "--seed", "1"],
    "initial_energy = 2e-4\nfc_y = 250\n",
)
# Nine seeds: np.mean sums the per-seed values along its 8-way unrolled path.
CASES["compare-9-seeds"] = (["compare", "--seeds", "1,2,3,4,5,6,7,8,9", "--rounds", "400"], "")
# 400 nodes, far fusion centre: about 40 heads a round and 2340 relays in all,
# the deepest spanning trees of the matrix.
CASES["proposed-400-nodes"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform",
     "--seed", "1", "--rounds", "60"],
    "nodes = 400\nfc_y = 400\n",
)
# 3000 nodes, baseline: about 300 heads a round, so members find their head by
# the grid search (64 heads or more), not the dense one.
CASES["baseline-3000-nodes"] = (
    ["run", "--protocol", "baseline", "--clustering", "nonuniform",
     "--seed", "1", "--rounds", "10"],
    "nodes = 3000\n",
)
# 3000 nodes, far fusion centre: about 300 heads a round and 2990 relays in
# all, so Prim grows trees of about 300 vertices.
CASES["proposed-3000-nodes"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform",
     "--seed", "1", "--rounds", "10"],
    "nodes = 3000\nfc_y = 400\n",
)
# Tiny batteries and a far fusion centre over 250 rounds: no baseline node dies
# (its first death is censored at 251), while proposed first deaths fall in
# rounds 191-234, so the mean first death mixes and mean_final_alive < nodes.
CASES["compare-depletion"] = (
    ["compare", "--seeds", "1,2,3", "--rounds", "250"], "initial_energy = 2e-4\nfc_y = 250\n"
)
# The three workloads of perfbench/run.py not pinned above, at its digests
# (its large-baseline workload is baseline-3000-nodes): the headline compare
# over 100 rounds, 1000 proposed nodes of ~100 heads a round, and three
# depletion seeds in one CSV.
CASES["compare-100-rounds"] = (["compare", "--seeds", "1", "--rounds", "100"], "")
CASES["proposed-1000-nodes"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform",
     "--seed", "1", "--rounds", "10"],
    "nodes = 1000\n",
)
CASES["depletion-3-seeds"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform", "--seeds", "3,4,5"],
    "initial_energy = 2e-4\nfc_y = 250\n",
)
# Seed 2 of the depletion scenario over 300 rounds: scalar math.hypot and
# np.hypot distances give residuals that differ in the last digit on 3 rows.
CASES["depletion-seed2-300-rounds"] = (
    ["run", "--protocol", "proposed", "--clustering", "nonuniform",
     "--seed", "2", "--rounds", "300"],
    "initial_energy = 2e-4\nfc_y = 250\n",
)

GOLDEN = {
    "baseline-seed1-fc50":
        "f700bec08972a5b8b808f743ccb821b97a6de1fe8792a5cd0f5405d71139f912",
    "baseline-seed1-fc400":
        "f4cbbddeb17a75426d9c2c770347fedd67ad39cf2b000791686faf1c0dd41bb1",
    "baseline-seed2-fc50":
        "bf8a92dd4d168b507839ac2a208178a6e86f8b2fdc0e5e76342635446dca0268",
    "baseline-seed2-fc400":
        "b55512fbbc4ead8747e54ea90a411d58595dc39b9b3fe467d7ef0b8009f88b77",
    "proposed_uniform-seed1-fc50":
        "30c104d03ca119a9b2b4e8910e1453d613969598593b50255291472ddeecc5b3",
    "proposed_uniform-seed1-fc400":
        "3e3fc64756d33aa3e2d8dc8467742d8789d1161975df7733d41519df381d6ed1",
    "proposed_uniform-seed2-fc50":
        "9af676aaa6d8a1bc75eebc6c38d5d3b6cae23cd08082568f5ec26f3fc94bf8df",
    "proposed_uniform-seed2-fc400":
        "1b4ea56f4db2da16f1ce9cb7396789d50b3a26dd6d5c2f20a0f89ec436fc0bab",
    "proposed_nonuniform-seed1-fc50":
        "59d06861c92e698f5207d1674b5d1ea33529bbfd32b871296f9ed2e74e33413c",
    "proposed_nonuniform-seed1-fc400":
        "24d0797cc6dcbe9992c8386adbeeb07f9f38724b446400a9ad6e7921a927e9f6",
    "proposed_nonuniform-seed2-fc50":
        "a78ce76075f8d404bfe3380a9e9e4d71c02e54f3ba35be5df0f9f0960b6e06c7",
    "proposed_nonuniform-seed2-fc400":
        "85e126c1243fa5cb2b528fbafdb938893fe25ad94ad20ddbd596899685a55953",
    "depletion":
        "d22fa7b7daa4939b80ca6166368e3718e418b31171a4fb00011832179308a124",
    "zero-head-fallback":
        "5799d214ce6790bb51d7b6f805ea0bd27d3c03b2c4177e11cea7fa9fd28a3efe",
    "compare":
        "5e8df238c1f252beb88f571d3201415f87142e2841f888a77861e144b505ec7b",
    "advanced-nodes":
        "81fb579f063f52ee3523e19ab188b1d819b2d68e45e63981ccbb9f4f65fba2d3",
    "uniform-depletion":
        "7c53c5f6f7720f636698355a2ac9232869b035613ebfa4eee8f3ee232de665f8",
    "compare-9-seeds":
        "1a628c977d40593a8bf187e795aefb08ac02d4da945b4c9f249b1703590534a2",
    "proposed-400-nodes":
        "46c7b55ff2d283b539bdb66edc2d2df109cd53870e606f632534923babe91645",
    "baseline-3000-nodes":
        "b5b0eac35ef15c9d0be58288c30c3d49822becafbb08b18da5ee1717dbe67da3",
    "compare-depletion":
        "943427ddf66cbdb82faed1b026e8efbbf2094b227fcf4810ccc7ab51a46c3280",
    "proposed-3000-nodes":
        "be9e0346146325d968775b7a8e1111f999b85839dc19d6cced2d896196aeeb45",
    "compare-100-rounds":
        "b068d2efd49949469a8e05e4ef8373bd12684593221814320fd036968abdd990",
    "proposed-1000-nodes":
        "7397c810f4d3cb0025518dcc861fa417251a4915fbaac5b533d8d73738448b33",
    "depletion-3-seeds":
        "aac4d9db0124f548a920555bb0c896d2800993a12b3abe7a147cdf55f9c96097",
    "depletion-seed2-300-rounds":
        "c4e145c542bf0093e53737b6927033564b29e7d183d693ff1130628af33dc661",
}


def cli_output(tmp_path, argv, config_text):
    """Bytes the CLI writes for ``argv`` plus a config file holding ``config_text``."""
    config, out = tmp_path / "case.cfg", tmp_path / "out.csv"
    config.write_text(config_text)
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    return out.read_bytes()


def _rows(data):
    return [line.split(",") for line in data.decode().splitlines()
            if line[:1].isdigit()]


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(tmp_path, case):
    data = cli_output(tmp_path, *CASES[case])
    assert hashlib.sha256(data).hexdigest() == GOLDEN[case]


def test_depletion_case_runs_to_extinction(tmp_path):
    rows = _rows(cli_output(tmp_path, *CASES["depletion"]))
    assert rows[-1][5] == "0"
    assert len(rows) < 1500


@pytest.mark.parametrize("case", ["advanced-nodes", "uniform-depletion"])
def test_extra_depletion_cases_run_to_extinction(tmp_path, case):
    rows = _rows(cli_output(tmp_path, *CASES[case]))
    assert rows[-1][5] == "0"
    assert len(rows) < 1500


def test_fallback_case_has_zero_head_rounds(tmp_path):
    rows = _rows(cli_output(tmp_path, *CASES["zero-head-fallback"]))
    assert any(row[6] == "0" for row in rows)


def test_compare_depletion_case_mixes_censored_and_observed_deaths(tmp_path):
    data = cli_output(tmp_path, *CASES["compare-depletion"])
    rows = {line.split(",")[0]: [float(v) for v in line.split(",")[1:]]
            for line in data.decode().splitlines()
            if line.split(",")[0] in {name for name, _, _ in VARIANTS}}
    assert rows["baseline"][3] == 251.0  # censored: no baseline node dies
    for name in ("proposed_uniform", "proposed_nonuniform"):
        assert 191.0 <= rows[name][3] <= 234.0
        assert rows[name][2] < 100.0


# Two compare calls whose summary rows are recomputed from each variant's run
# output; at 3 rounds (fewer than nodes / k) the uniform variant runs round by round.
SUMMARISED = {
    "compare-depletion": CASES["compare-depletion"],
    "compare-3-rounds": (["compare", "--seeds", "1", "--rounds", "3"], ""),
}


def _first_death(rows, nodes, rounds):
    """The first round whose alive count falls below the last one, ``rounds + 1`` if none."""
    alive = [nodes, *(int(fields[5]) for fields in rows)]
    return next((int(fields[0]) for fields, before, after in zip(rows, alive, alive[1:])
                 if after < before), rounds + 1)


@pytest.mark.parametrize("case", sorted(SUMMARISED))
def test_compare_rows_summarise_each_variants_run(tmp_path, case):
    argv, text = SUMMARISED[case]
    with mock.patch.object(engine, "_round", wraps=engine._round) as loop:
        lines = cli_output(tmp_path, argv, text).decode().splitlines()
    assert loop.called == (case == "compare-3-rounds")
    rounds, seeds = (argv[argv.index(flag) + 1] for flag in ("--rounds", "--seeds"))
    nodes = int(next(line.split("=")[1] for line in lines if line.startswith("# nodes =")))
    body = [line.split(",") for line in lines if not line.startswith("#")]
    means = {}
    for (name, protocol, clustering), row in zip(VARIANTS, body[1:4], strict=True):
        runs = {}  # seed -> its rows, in round order
        for fields in _rows(cli_output(tmp_path, ["run", "--protocol", protocol, "--clustering",
                                                  clustering, "--seeds", seeds, "--rounds",
                                                  rounds], text)):
            runs.setdefault(fields[3], []).append(fields)
        finals = [float(rows[-1][4]) for rows in runs.values()]
        alives = [float(rows[-1][5]) for rows in runs.values()]
        deaths = [float(_first_death(rows, nodes, int(rounds))) for rows in runs.values()]
        means[name] = [float(np.mean(finals)), float(np.std(finals)),
                       float(np.mean(alives)), float(np.mean(deaths))]
        assert row[0] == name and [float(v) for v in row[1:]] == means[name]
    b, u, n = means["baseline"], means["proposed_uniform"], means["proposed_nonuniform"]
    assert [[fields[0], float(fields[1]), *fields[2:]] for fields in body[4:]] == [
        ["ratio_residual_proposed_uniform_over_baseline", u[0] / b[0], "", "", ""],
        ["ratio_residual_proposed_uniform_over_proposed_nonuniform", u[0] / n[0], "", "", ""],
        ["ratio_alive_proposed_uniform_over_baseline", u[2] / b[2], "", "", ""],
    ]
